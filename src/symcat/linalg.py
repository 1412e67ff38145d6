"""Exact linear algebra over the rationals, computed on int.

>>> matrix_rank([[1, 2], [2, 4], [0, Fraction(1, 2)]])
2
>>> common_denominator([Fraction(1, 2), 3, Fraction(-2, 3)])
([3, 18, -4], 6)
"""

import math

from fractions import Fraction

__all__ = ['scalar', 'common_denominator', 'matrix_rank']


def scalar(c):
    """c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def common_denominator(values):
    """ints n_i and d = LCM of the denominators with values[i] == n_i / d."""
    values = list(values)  # read twice, so a generator must not be consumed
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def matrix_rank(rows):
    """Rank of int/Fraction rows by fraction-free (Bareiss 1968) elimination.

    Each row is cleared of denominators.  After k pivots every entry is a
    (k+1)-minor, so the division by the previous pivot is exact.
    """
    rows = [r for r in (common_denominator(row)[0] for row in rows) if any(r)]
    rank, prev = 0, 1
    while rows:
        pivot = next((r for r in rows if r[0]), None)
        if pivot is None:
            rows = [r[1:] for r in rows]
            continue
        p, tail = pivot[0], pivot[1:]
        rows = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], tail)]
                for r in rows if r is not pivot]
        rows = [r for r in rows if any(r)]
        rank, prev = rank + 1, p
    return rank
