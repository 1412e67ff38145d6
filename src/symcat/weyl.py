r"""The Weyl algebra W = Z<x, d>/(dx - xd - 1) and its polynomial lattices.

Elements are kept in normal order (every x to the left of every d) as sparse
maps (a, b) -> coeff meaning sum c x^a d^b.  The algebra acts on two integral
lattices inside Q[x]: the monomial lattice R' with basis x^n, and the
divided-power lattice R with basis r_n = x^n/n!.  Both are W-stable and are
paired by <x^n, r_m> = delta, the integral form of <x^n, x^m> = delta n!.

>>> d, x = WeylElement({(0, 1): 1}), WeylElement({(1, 0): 1})
>>> weyl_multiply(d, x) == WeylElement({(1, 1): 1, (0, 0): 1})
True
>>> v = PolyVector(MONOMIALS, {3: 1})
>>> weyl_apply(d, v).coeffs
{2: 3}
"""

from __future__ import annotations

import math
import re

from .errors import LatticeMismatch, ParseError
from .linalg import LinComb, render_terms, split_terms

__all__ = [
    'DIVIDED_POWERS',
    'MONOMIALS',
    'WeylElement',
    'PolyVector',
    'weyl_multiply',
    'weyl_multiply_single_step',
    'weyl_apply',
    'weyl_pairing',
    'parse_weyl',
    'render_weyl',
    'parse_polyvector',
    'render_polyvector',
]

DIVIDED_POWERS = 'R'
MONOMIALS = 'Rprime'

class WeylElement(LinComb):
    """Normal-ordered integer combination of x^a d^b monomials."""

    __slots__ = ()
    # display order: highest total degree first, then highest power of x
    _ORDER = staticmethod(lambda ab: (-(ab[0] + ab[1]), -ab[0]))

    def __new__(cls, coeffs):
        for a, b in coeffs:
            if not (type(a) is int and type(b) is int and a >= 0 and b >= 0):
                raise ValueError(f'bad exponent pair {(a, b)!r}')
        return cls._new(coeffs)

    def __repr__(self):
        return f'WeylElement({render_weyl(self)!r})'


class PolyVector(LinComb):
    """Integer vector in one of the two polynomial lattices."""

    __slots__ = ('lattice',)
    _TAGS = ('lattice',)
    _MISMATCH = LatticeMismatch
    _ORDER = staticmethod(int)  # degrees, shown from 0 up

    def __new__(cls, lattice, coeffs):
        if lattice not in (DIVIDED_POWERS, MONOMIALS):
            raise ValueError(f'unknown lattice {lattice!r}')
        for n in coeffs:
            if not (type(n) is int and n >= 0):
                raise ValueError(f'bad degree {n!r}')
        return cls._new(lattice, coeffs)

    def __repr__(self):
        return f'PolyVector({render_polyvector(self)!r})'


def _mono_product_closed(a1, b1, a2, b2):
    """Normal order of (x^a1 d^b1)(x^a2 d^b2) by the commutator expansion.

    d^b x^c = sum_k C(b,k) C(c,k) k! x^{c-k} d^{b-k}.
    """
    out = {}
    for k in range(min(b1, a2) + 1):
        coeff = math.comb(b1, k) * math.comb(a2, k) * math.factorial(k)
        key = (a1 + a2 - k, b1 + b2 - k)
        out[key] = out.get(key, 0) + coeff
    return out


def _mono_product_single_step(a1, b1, a2, b2):
    """Same product, by repeatedly rewriting one adjacent 'd x' pair.

    A term is a word in {'x', 'd'}; rewriting replaces the leftmost 'dx'
    with 'xd' plus a dropped-pair term until every word is normal.
    """
    words = {('x',) * a1 + ('d',) * b1 + ('x',) * a2 + ('d',) * b2: 1}
    out = {}
    while words:
        word, coeff = words.popitem()
        for i in range(len(word) - 1):
            if word[i] == 'd' and word[i + 1] == 'x':
                swapped = word[:i] + ('x', 'd') + word[i + 2:]
                dropped = word[:i] + word[i + 2:]
                words[swapped] = words.get(swapped, 0) + coeff
                words[dropped] = words.get(dropped, 0) + coeff
                break
        else:
            key = (word.count('x'), word.count('d'))
            out[key] = out.get(key, 0) + coeff
    return out


def _multiply_with(u, v, mono_product):
    out = {}
    for (a1, b1), c1 in u.coeffs.items():
        for (a2, b2), c2 in v.coeffs.items():
            for key, k in mono_product(a1, b1, a2, b2).items():
                out[key] = out.get(key, 0) + c1 * c2 * k
    return WeylElement._new(out)


def weyl_multiply(u, v):
    """Normal-ordered product in W, by the closed-form commutator expansion.

    `weyl_multiply_single_step` computes the same product by rewriting and
    is kept as its oracle.
    """
    return _multiply_with(u, v, _mono_product_closed)


def weyl_multiply_single_step(u, v):
    """Oracle variant: always the one-swap-at-a-time rewriting route."""
    return _multiply_with(u, v, _mono_product_single_step)


def weyl_apply(u, v):
    """Apply u to a vector in its own lattice coordinates.

    Monomial lattice: x shifts n -> n+1; d sends the basis vector at n to
    n times the one at n-1.  Divided powers: x sends the basis vector at n
    to (n+1) times the one at n+1; d shifts n -> n-1.
    """
    out = {}
    for (a, b), c in u.coeffs.items():
        for n, cn in v.coeffs.items():
            # apply d^b then x^a to the basis vector at n
            m = n
            scale = 1
            if v.lattice == MONOMIALS:
                for _ in range(b):
                    scale *= m
                    m -= 1
                if scale == 0:
                    continue
                m += a
            else:
                m -= b
                if m < 0:
                    continue
                for _ in range(a):
                    m += 1
                    scale *= m
            out[m] = out.get(m, 0) + c * cn * scale
    return PolyVector._new(v.lattice, out)


def weyl_pairing(v, w):
    """<x^n, r_m> = delta extended bilinearly; perfect and integral."""
    if v.lattice != MONOMIALS or w.lattice != DIVIDED_POWERS:
        raise LatticeMismatch(
            'pairing takes (monomial-lattice, divided-power-lattice) arguments')
    total = 0
    for n, c in v.coeffs.items():
        total += c * w.coeffs.get(n, 0)
    return total


#################
# wire formats  #
#################

_WTERM_RE = re.compile(
    r'^\s*(?P<coeff>-?\d+)?\s*(?:x\^(?P<xa>\d+))?\s*(?:d\^(?P<db>\d+))?\s*$')


def parse_weyl(text):
    """Parse a WeylElement literal like '3 x^2 d^1 + d^0' or 'x^1 - 2'.

    >>> parse_weyl('3 x^2 d^1 + d^0') == WeylElement({(2, 1): 3, (0, 0): 1})
    True
    """
    text = text.strip()
    if text == '0':
        return WeylElement({})
    if not text:
        raise ParseError('empty Weyl literal')
    out = {}
    for sgn, chunk in split_terms(text):
        mo = _WTERM_RE.match(chunk)
        if not mo or not any(mo.groups()):
            raise ParseError(f'bad Weyl term {chunk.strip()!r}')
        coeff = int(mo.group('coeff') or 1)
        a = int(mo.group('xa') or 0)
        b = int(mo.group('db') or 0)
        out[(a, b)] = out.get((a, b), 0) + sgn * coeff
    return WeylElement(out)


def render_weyl(u):
    """Deterministic text form, highest total degree first.

    >>> render_weyl(WeylElement({(2, 1): 3, (0, 0): 1}))
    '3 x^2 d^1 + d^0'
    """
    pairs = []
    for a, b in sorted(u.coeffs, key=WeylElement._ORDER):
        factors = [f'x^{a}'] if a else []
        if b or not a:
            factors.append(f'd^{b}')
        pairs.append((' '.join(factors), u.coeffs[(a, b)]))
    return render_terms(pairs)


def parse_polyvector(text):
    """Parse 'lattice:R [c0,c1,...]' / 'lattice:Rprime [...]' literals.

    >>> parse_polyvector('lattice:R [0,2]') == PolyVector(DIVIDED_POWERS, {1: 2})
    True
    """
    mo = re.match(r'^\s*lattice:(R|Rprime)\s*\[([-\d,\s]*)\]\s*$', text)
    if not mo:
        raise ParseError(f'bad PolyVector literal {text!r}')
    lattice = mo.group(1)
    body = mo.group(2).strip()
    coeffs = {}
    if body:
        for i, tok in enumerate(body.split(',')):
            try:
                coeffs[i] = int(tok)
            except ValueError:
                raise ParseError(f'bad coefficient {tok.strip()!r}') from None
    return PolyVector(lattice, coeffs)


def render_polyvector(v):
    """Inverse of parse_polyvector (dense up to the top degree).

    >>> render_polyvector(PolyVector(DIVIDED_POWERS, {1: 2}))
    'lattice:R [0,2]'
    """
    top = max(v.coeffs, default=-1)
    dense = [str(v.coeffs.get(i, 0)) for i in range(top + 1)]
    return f'lattice:{v.lattice} [' + ','.join(dense) + ']'


if __name__ == '__main__':
    import doctest
    doctest.testmod()
