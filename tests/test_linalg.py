"""Tests for the exact linear-algebra kernel against a Fraction oracle."""

import math
import random

from fractions import Fraction

import symcat.nilcoxeter as nx
from symcat.linalg import common_denominator, matrix_rank, scalar


def fraction_rank(rows):
    """Oracle: Gauss-Jordan elimination over Fraction, kept independent of linalg."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_entry(rng, rational):
    num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 5)) if rational else num


def random_matrix(rng, nrows, ncols, rational, zero_share=0.4):
    return [[0 if rng.random() < zero_share else random_entry(rng, rational)
             for _ in range(ncols)] for _ in range(nrows)]


def low_rank_matrix(rng, nrows, ncols, inner, rational):
    """A product of nrows x inner and inner x ncols factors: rank <= inner."""
    left = random_matrix(rng, nrows, inner, rational, 0.2)
    right = random_matrix(rng, inner, ncols, rational, 0.2)
    return [[sum((a * right[k][j] for k, a in enumerate(row)), 0) for j in range(ncols)]
            for row in left]


def test_rank_edge_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0
    assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert matrix_rank([[Fraction(0)] * 4] * 3) == 0
    assert matrix_rank([[0, 0, 5]]) == 1
    assert matrix_rank([[-3]]) == 1
    assert matrix_rank([[1, 2], [2, 4], [0, 1]]) == 2


def test_rank_matches_fraction_oracle():
    rng = random.Random(20261018)
    for trial in range(300):
        rational = trial % 2 == 1
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 3 == 0:
            inner = rng.randint(0, min(nrows, ncols))
            rows = low_rank_matrix(rng, nrows, ncols, inner, rational)
            assert matrix_rank(rows) <= inner
        else:
            rows = random_matrix(rng, nrows, ncols, rational)
        before = [list(r) for r in rows]
        assert matrix_rank(rows) == fraction_rank(rows), rows
        assert rows == before  # the input is left alone


def test_rank_tall_wide_and_negative():
    rng = random.Random(7)
    for nrows, ncols in ((12, 3), (3, 12), (9, 9), (1, 10), (10, 1)):
        for rational in (False, True):
            rows = [[-abs(random_entry(rng, rational)) for _ in range(ncols)]
                    for _ in range(nrows)]
            assert matrix_rank(rows) == fraction_rank(rows)
            # duplicated and negated rows add nothing to the rank
            doubled = rows + [[-x for x in row] for row in rows]
            assert matrix_rank(doubled) == fraction_rank(rows)


def test_rank_with_large_entries():
    # Bareiss keeps every intermediate an exact minor; no overflow or rounding
    rng = random.Random(11)
    rows = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(6)] for _ in range(6)]
    rows.append([a + 3 * b for a, b in zip(rows[0], rows[1])])
    assert matrix_rank(rows) == fraction_rank(rows) == 6


def test_common_denominator():
    rng = random.Random(3)
    assert common_denominator([]) == ([], 1)
    for _ in range(50):
        values = [random_entry(rng, rng.random() < 0.5) for _ in range(rng.randint(1, 6))]
        nums, d = common_denominator(values)
        assert d == math.lcm(*(Fraction(v).denominator for v in values))
        assert all(type(n) is int for n in nums)
        assert [Fraction(n, d) for n in nums] == values


def test_scalar_normalises():
    assert type(scalar(Fraction(4, 2))) is int and scalar(Fraction(4, 2)) == 2
    assert scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert type(scalar(7)) is int


def test_hom_space_dimension_with_rational_actions():
    # scaling both actions by the same nonzero rational keeps every Hom space
    for n in range(1, 4):
        dim = math.factorial(n)
        mats = nx.regular_action_matrices(n)
        half = [[[Fraction(x, 2) for x in row] for row in mat] for mat in mats]
        assert nx.hom_space_dimension(half, dim, half, dim) == \
            nx.hom_space_dimension(mats, dim, mats, dim)


def test_rows_may_be_iterators():
    rows = [[1, 2], [2, 4], [0, Fraction(1, 2)]]
    assert matrix_rank(iter(row) for row in rows) == 2
    assert common_denominator(x for x in (Fraction(1, 2), 1)) == ([1, 2], 2)
