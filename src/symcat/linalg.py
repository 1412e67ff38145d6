"""Exact linear algebra over the rationals, computed on int.

`LinComb` is the one sparse linear-combination type: every algebra element
and class vector in the package is a `LinComb` subclass.  The text format of
a combination lives here too: every renderer prints the signed sum of
`render_terms`, and every literal parser splits its input with
`split_terms`.  Every bounded memo of the package is declared with `memo`,
which keeps it in one registry, `MEMOS`.

>>> matrix_rank([[1, 2], [2, 4], [0, Fraction(1, 2)]])
2
>>> common_denominator([Fraction(1, 2), 3, Fraction(-2, 3)])
([3, 18, -4], 6)
"""

import functools
import math

from fractions import Fraction

from .errors import NonIntegralResult, ParseError

__all__ = ['scalar', 'common_denominator', 'matrix_rank', 'LinComb', 'render_terms',
           'split_terms', 'MEMOS', 'memo', 'clear_memos']

# every bounded memo -> its layer: 'kernel' (a fast path), 'oracle' (an
# independent check, which reads no kernel memo) or 'shared' (read by both)
MEMOS = {}


def memo(maxsize, layer='kernel'):
    """Decorator: fn under `functools.lru_cache(maxsize=maxsize)`, entered in
    MEMOS under layer.  It returns the lru_cache wrapper itself, so a call
    runs no extra Python frame."""
    def register(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        MEMOS[cached] = layer
        return cached
    return register


def clear_memos():
    """Empty every memo in MEMOS."""
    for cached in MEMOS:
        cached.cache_clear()


def scalar(c):
    """c as an int when integral, else as a Fraction; only int (bool
    included) and Fraction are taken, so floats and strings are refused.

    >>> scalar(0.1)
    Traceback (most recent call last):
        ...
    TypeError: inexact coefficient 0.1: use int or Fraction
    """
    if type(c) is int:
        return c
    if not isinstance(c, (int, Fraction)):
        kind = 'inexact' if isinstance(c, float) else 'unsupported'
        raise TypeError(f'{kind} coefficient {c!r}: use int or Fraction')
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


class LinComb:
    """An immutable finite combination sum c_k [k] of hashable basis labels k.

    `coeffs` maps each label to its nonzero coefficient.  A subclass names
    the slots that fix its space (a basis, a rank, a lattice ...) in
    `_TAGS`; elements of one class combine only within one space, and
    `_MISMATCH` is raised otherwise.  `_RATIONAL` picks the coefficient
    policy: int only (a non-integral coefficient raises NonIntegralResult)
    or rationals, kept as int when integral.  A subclass with a display
    order sets `_ORDER` to its sort key on labels, and a NonIntegralResult
    then names the first offending coefficient in that order, whatever
    order the terms were inserted in.  The public constructor
    (`__new__`) of a subclass validates its tags and labels and returns
    `_new`; internal results call `_new` directly.
    """

    __slots__ = ('coeffs',)
    _TAGS = ()
    _RATIONAL = False
    _MISMATCH = ValueError
    _ORDER = None

    @classmethod
    def _new(cls, *args):
        """Internal constructor: tag values in `_TAGS` order, then the
        coefficient map; the tags and labels are trusted."""
        new = object.__new__(cls)
        for name, value in zip(cls._TAGS, args):
            object.__setattr__(new, name, value)
        object.__setattr__(new, 'coeffs', new._clean(args[-1]))
        return new

    def _like(self, coeffs):
        """An element of the space of self with the given coefficients."""
        new = object.__new__(type(self))
        for name in self._TAGS:
            object.__setattr__(new, name, getattr(self, name))
        object.__setattr__(new, 'coeffs', new._clean(coeffs))
        return new

    def _clean(self, coeffs):
        """coeffs without its zero terms, each coefficient under the policy."""
        clean = {}
        try:
            for k, c in coeffs.items():
                if type(c) is not int:
                    c = self._exact(k, c)
                if c:
                    clean[k] = c
        except NonIntegralResult:
            if self._ORDER is not None:
                for k in sorted(coeffs, key=self._ORDER):
                    self._exact(k, coeffs[k])
            raise
        return clean

    def _exact(self, key, c):
        """The coefficient c of key under this class's policy."""
        c = scalar(c)
        if type(c) is not int and not self._RATIONAL:
            raise NonIntegralResult(
                f'coefficient {c} of {key!r} is not an integer in {type(self).__name__}')
        return c

    def _align(self, other):
        """other, checked to lie in the space of self."""
        for name in self._TAGS:
            if getattr(self, name) != getattr(other, name):
                raise self._MISMATCH(f'cannot combine {type(self).__name__} values '
                                     f'with different {name}')
        return other

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in self._align(other).coeffs.items():
            out[k] = out.get(k, 0) + sign * c
        return self._like(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __rmul__(self, c):
        c = scalar(c)
        return self._like({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs and all(
            getattr(self, name) == getattr(other, name) for name in self._TAGS)

    def is_zero(self):
        return not self.coeffs

    def __setattr__(self, *args):
        raise AttributeError(f'{type(self).__name__} is immutable')

    __delattr__ = __setattr__


def render_terms(pairs):
    """The signed sum of (body, coefficient) pairs, in the given order.

    A coefficient other than +-1 prefixes its magnitude; an empty body is a
    bare constant, printed as its magnitude.  No pairs give '0'.

    >>> render_terms([('x', -1), ('y', 2), ('', 1), ('z', Fraction(-1, 2))])
    '-x + 2 y + 1 - 1/2 z'
    >>> render_terms([])
    '0'
    """
    pieces = []
    for body, c in pairs:
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f'{mag} {body}'
        if not pieces:
            pieces.append(body if c > 0 else '-' + body)
        else:
            pieces.append(('+ ' if c > 0 else '- ') + body)
    return ' '.join(pieces) or '0'


def split_terms(text):
    """The (sign, term text) pairs of a signed sum `term (+- term)*`.

    A leading sign is optional; a sign not followed by a term raises
    ParseError.

    >>> split_terms('2 a - b')
    [(1, '2 a '), (-1, ' b')]
    >>> split_terms('a -')
    Traceback (most recent call last):
        ...
    symcat.errors.ParseError: trailing sign in 'a -'
    """
    terms = []
    sign = None  # None means: no sign seen since the last term (a leading + is implied)
    buf = ''
    for ch in text:
        if ch in '+-':
            if buf.strip():
                terms.append((sign if sign is not None else 1, buf))
            elif sign is not None or terms:
                raise ParseError(f'dangling sign in {text!r}')
            sign = 1 if ch == '+' else -1
            buf = ''
        else:
            buf += ch
    if not buf.strip():
        raise ParseError(f'trailing sign in {text!r}')
    terms.append((sign if sign is not None else 1, buf))
    return terms
