r"""The ring of symmetric functions over Z with five bases and Hopf structure.

Elements are `SymFunc` values: a basis tag ('m', 'e', 'h', 'p', 's') plus a
sparse partition -> coefficient map.  Arithmetic is integer-first: integral
coefficients are stored as `int`, and `Fraction` appears only for the
non-integral coefficients of the powersum basis, the one basis that spans
merely over Q.  The rational-valued scalars -- `hall_pairing`,
`tensor_pairing`, `counit` and the `coproduct` coefficients -- are returned
as `Fraction`.

The monomial basis is the computational pivot: every other basis element is
expanded into monomials (products for e/h/p, a Jacobi-Trudi determinant for
s).  Conversion back reads a cached per-degree m -> X table built by
triangular back-substitution: s_lam and e_lam' are m_lam plus terms strictly
lower in dominance order, and p_lam is a positive multiple of m_lam plus
terms strictly higher (Macdonald, ch. I section 6), so each m_mu is solved
from rows already known.  The h table composes the s table with
Jacobi-Trudi.  `monomial_expand` maps elements to honest polynomials in
x_1..x_n and, with `poly_mult`, is the independent oracle the product
routines are tested against.

This module also carries Fock-space vectors and symmetric-group K-theory
classes: both are identified with symmetric functions elsewhere in the
package, so `multiply` and `dual_apply` double as raising/lowering operators.

>>> e2 = basis_element('e', (2,))
>>> render(convert(e2, 'm'))
'm[1,1]'
>>> render(multiply(basis_element('s', (1,)), basis_element('s', (1,))))
's[2] + s[1,1]'
>>> hall_pairing(basis_element('m', (2,)), basis_element('h', (2,)))
Fraction(1, 1)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .combinatorics import (
    conjugate,
    is_partition,
    parse_partition,
    partition_key,
    partitions_of,
    render_partition,
)
from .errors import InsufficientVariables, NonIntegralResult, ParseError

__all__ = [
    'BASES',
    'SymFunc',
    'basis_element',
    'one',
    'zero',
    'degree',
    'convert',
    'multiply',
    'monomial_expand',
    'poly_mult',
    'coproduct',
    'counit',
    'antipode',
    'hall_pairing',
    'tensor_pairing',
    'schur',
    'lr_coefficients',
    'dual_apply',
    'parse_symfunc',
    'render',
    'to_json',
    'from_json',
]

# basis tags: monomial, elementary, complete, powersum, schur
BASES = ('m', 'e', 'h', 'p', 's')

_LONG_NAMES = {
    'monomial': 'm', 'elementary': 'e', 'complete': 'h',
    'powersum': 'p', 'schur': 's',
}


def _check_basis(basis):
    basis = _LONG_NAMES.get(basis, basis)
    if basis not in BASES:
        raise ValueError(f'unknown basis {basis!r}')
    return basis


def _scalar(c):
    """c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _clean(basis, coeffs):
    """Drop zero terms and store integral coefficients as int.

    Coefficients must already be int or Fraction.  Only the powersum basis
    may keep a non-integral one; anywhere else NonIntegralResult is raised.
    """
    clean = {}
    for lam, c in coeffs.items():
        if not c:
            continue
        if type(c) is not int:
            if c.denominator == 1:
                c = c.numerator
            elif basis != 'p':
                raise NonIntegralResult(
                    f'coefficient {c} of {lam} is not an integer in basis {basis!r}')
        clean[lam] = c
    return clean


def _new(basis, coeffs):
    """Internal constructor: trusts the basis tag and the partition keys."""
    f = object.__new__(SymFunc)
    object.__setattr__(f, 'basis', basis)
    object.__setattr__(f, 'coeffs', _clean(basis, coeffs))
    return f


class SymFunc:
    """A symmetric function in a fixed basis.

    Zero coefficients are pruned at construction and integral ones are
    stored as int; coefficients outside the powersum basis must be integers
    (NonIntegralResult otherwise, which is how `convert` reports genuinely
    rational powersum combinations).  Values are immutable; all operations
    return fresh objects.
    """

    __slots__ = ('basis', 'coeffs')

    def __init__(self, basis, coeffs):
        basis = _check_basis(basis)
        checked = {}
        for lam, c in coeffs.items():
            lam = tuple(lam)
            if not is_partition(lam):
                raise ValueError(f'not a partition: {lam!r}')
            checked[lam] = _scalar(c)
        object.__setattr__(self, 'basis', basis)
        object.__setattr__(self, 'coeffs', _clean(basis, checked))

    def __setattr__(self, *a):
        raise AttributeError('SymFunc is immutable')

    def terms(self):
        """Coefficient items in display order (degree, then reverse-lex)."""
        return sorted(self.coeffs.items(), key=lambda kv: partition_key(kv[0]))

    def is_zero(self):
        return not self.coeffs

    def homogeneous_parts(self):
        """Map degree -> SymFunc, splitting into homogeneous components."""
        by_deg = {}
        for lam, c in self.coeffs.items():
            by_deg.setdefault(sum(lam), {})[lam] = c
        return {d: _new(self.basis, cs) for d, cs in sorted(by_deg.items())}

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.basis != self.basis:
            other = convert(other, self.basis)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return _new(self.basis, out)

    def __neg__(self):
        return _new(self.basis, {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = _scalar(scalar)
        return _new(self.basis, {lam: scalar * c for lam, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return multiply(self, other)
        return self.__rmul__(other)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            return self.coeffs == other.coeffs
        # compare in a common basis; use p when either side lives there so
        # genuinely rational elements stay representable, else the pivot
        common = 'p' if 'p' in (self.basis, other.basis) else 'm'
        return convert(self, common).coeffs == convert(other, common).coeffs

    def __repr__(self):
        return f'SymFunc({render(self)!r})'


def basis_element(basis, lam):
    """The basis element with partition lam and coefficient 1."""
    return SymFunc(basis, {tuple(lam): 1})


def one(basis='m'):
    """The unit of Sym (empty-partition term)."""
    return SymFunc(basis, {(): 1})


def zero(basis='m'):
    return SymFunc(basis, {})


def degree(f):
    """Top degree of f (0 for the zero element)."""
    return max((sum(lam) for lam in f.coeffs), default=0)


#############################################
# monomial expansions of the other bases    #
#############################################

def _sorted_items(acc):
    """Nonzero items of a partition -> coeff map, in display order."""
    return tuple(sorted(((lam, c) for lam, c in acc.items() if c),
                        key=lambda kv: partition_key(kv[0])))


def _distinct_perms(pool):
    """Distinct orderings of a multiset, as tuples.

    The most frequent value is written into every position; the copies of
    each other value then go onto a combination of the positions still free,
    so each ordering is built once, with a recursion as deep as the number
    of distinct values.
    """
    counts = {}
    for x in pool:
        counts[x] = counts.get(x, 0) + 1
    if not counts:
        yield ()
        return
    fill = max(counts, key=counts.get)
    rest = [(x, k) for x, k in counts.items() if x != fill]
    out = [fill] * len(pool)
    if not rest:
        yield tuple(out)
        return

    def rec(i, free):
        x, k = rest[i]
        last = i == len(rest) - 1
        for chosen in combinations(free, k):
            for pos in chosen:
                out[pos] = x
            if last:
                yield tuple(out)
            else:
                yield from rec(i + 1, [pos for pos in free if out[pos] == fill])
            for pos in chosen:
                out[pos] = fill

    yield from rec(0, range(len(pool)))


def _orbit_count(lam, nvars):
    """Number of distinct rearrangements of lam padded with zeros to nvars."""
    if len(lam) > nvars:
        return 0
    denom = math.factorial(nvars - len(lam))
    mult = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        denom *= math.factorial(m)
    return math.factorial(nvars) // denom


@lru_cache(maxsize=None)
def _m_mult_basis(lam, mu):
    """m_lam * m_mu as sorted ((nu, coeff), ...) items, via orbit counting.

    Counts pairs of rearrangements summing into each orbit: the coefficient
    of m_nu equals R(lam) * #{beta rearranged from mu : sort(lam+beta) = nu}
    / R(nu), computed in len(lam)+len(mu) variables where the expansion is
    faithful.  This is the grouped-by-orbit form of the polynomial product.
    """
    if _orbit_count(mu, len(lam) + len(mu)) > _orbit_count(lam, len(lam) + len(mu)):
        lam, mu = mu, lam
    nv = len(lam) + len(mu)
    lam_pad = tuple(lam) + (0,) * (nv - len(lam))
    counts = {}
    for beta in _distinct_perms(tuple(mu) + (0,) * (nv - len(mu))):
        nu = tuple(sorted((a + b for a, b in zip(lam_pad, beta)), reverse=True))
        nu = tuple(x for x in nu if x)
        counts[nu] = counts.get(nu, 0) + 1
    r_lam = _orbit_count(lam, nv)
    out = []
    for nu, c in sorted(counts.items(), key=lambda kv: partition_key(kv[0])):
        num = r_lam * c
        den = _orbit_count(nu, nv)
        assert num % den == 0
        out.append((nu, num // den))
    return tuple(out)


def _m_mult_raw(a, b):
    """Product of two partition->coeff maps, both in the monomial basis."""
    out = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            scale = ca * cb
            for nu, k in _m_mult_basis(lam, mu):
                out[nu] = out.get(nu, 0) + scale * k
    return {nu: c for nu, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _schur_h(lam):
    """s_lam in the complete basis: Jacobi-Trudi determinant det(h_{lam_i-i+j}).

    Expanded with one more row/column than l(lam) (the extra row is a unit
    vector, so the value is unchanged).  Minors are expanded along their top
    row and memoised on the set of remaining columns, so each of the 2^n
    subminors is computed once; h_0 entries contribute an empty factor and
    negative subscripts prune the branch.  Returned as sorted
    ((mu, coeff), ...) items.
    """
    n = len(lam) + 1
    lamp = tuple(lam) + (0,)

    @lru_cache(maxsize=None)
    def minor(mask):
        # determinant of the submatrix on the columns in mask and the last
        # popcount(mask) rows, as a map monomial -> integer coefficient
        row = n - bin(mask).count('1')
        if row == n:
            return {(): 1}
        out = {}
        pos = 0  # index of column j within mask, fixing the cofactor sign
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            k = lamp[row] + j - row
            if k >= 0:
                sign = -1 if pos % 2 else 1
                for mon, c in minor(mask & ~bit).items():
                    key = mon if k == 0 else tuple(
                        sorted(mon + (k,), reverse=True))
                    out[key] = out.get(key, 0) + sign * c
            pos += 1
        return out

    acc = minor((1 << n) - 1)
    minor.cache_clear()
    return _sorted_items(acc)


@lru_cache(maxsize=None)
def _basis_to_m(basis, lam):
    """Expansion of the basis element X_lam in monomials, as sorted items."""
    if basis == 'm':
        return ((tuple(lam), 1),)
    if basis == 's':
        out = {}
        for mu, c in _schur_h(lam):
            for nu, k in _basis_to_m('h', mu):
                out[nu] = out.get(nu, 0) + c * k
        return _sorted_items(out)
    # e/h/p are multiplicative: expand each part and multiply in m
    out = {(): 1}
    for part in lam:
        if basis == 'e':
            factor = {(1,) * part: 1}
        elif basis == 'p':
            factor = {(part,): 1}
        else:  # 'h'
            factor = {mu: 1 for mu in partitions_of(part)}
        out = _m_mult_raw(out, factor)
    return _sorted_items(out)


@lru_cache(maxsize=None)
def _m_to_basis_table(basis, d):
    """Per-degree table expressing each m_mu in basis X, by triangular solving.

    Returns a map mu -> ((lam, coeff), ...) meaning m_mu = sum coeff X_lam;
    coefficients are int except the non-integral powersum entries.
    partitions_of(d) lists partitions in reverse-lex order, which refines
    dominance.  s_mu and e_mu' expand as m_mu plus terms strictly dominated
    by mu, so m_mu = X - (those terms, rewritten by rows already solved),
    working up from the bottom of the order; p_mu is a positive multiple of
    m_mu plus terms strictly dominating it, solved from the top down with a
    division by that diagonal entry.  h is not triangular against m, so its
    table composes the s table with the Jacobi-Trudi expansion of s in h.
    """
    parts = partitions_of(d)
    if basis == 'h':
        table = {}
        for mu, row in _m_to_basis_table('s', d).items():
            acc = {}
            for lam, c in row:
                for nu, k in _schur_h(lam):
                    acc[nu] = acc.get(nu, 0) + c * k
            table[mu] = _sorted_items(acc)
        return table
    label = {conjugate(lam): lam for lam in parts} if basis == 'e' else \
        {lam: lam for lam in parts}
    table = {}
    for mu in (parts if basis == 'p' else reversed(parts)):
        acc = {label[mu]: 1}
        diag = 1
        for nu, c in _basis_to_m(basis, label[mu]):
            if nu == mu:
                diag = c
                continue
            for lam, k in table[nu]:
                acc[lam] = acc.get(lam, 0) - c * k
        if diag != 1:
            acc = {lam: _scalar(Fraction(c, diag)) for lam, c in acc.items()}
        table[mu] = _sorted_items(acc)
    return table


def _to_m_raw(f):
    """f's coefficients as a monomial-basis partition -> coefficient map."""
    out = {}
    for lam, c in f.coeffs.items():
        for mu, k in _basis_to_m(f.basis, lam):
            out[mu] = out.get(mu, 0) + c * k
    return {mu: c for mu, c in out.items() if c != 0}


def _from_m_raw(m_raw, target):
    """A monomial-basis map re-expressed in the target basis, degree by degree."""
    if target == 'm':
        return m_raw
    by_deg = {}
    for mu, c in m_raw.items():
        by_deg.setdefault(sum(mu), {})[mu] = c
    out = {}
    for d, comp in by_deg.items():
        table = _m_to_basis_table(target, d)
        for mu, c in comp.items():
            for lam, k in table[mu]:
                out[lam] = out.get(lam, 0) + c * k
    return out


def convert(f, target):
    """Express f in the target basis.

    Raises NonIntegralResult if the target is any basis but powersum and a
    coefficient comes out non-integral (the signature of a genuinely
    rational powersum combination outside Sym).
    """
    target = _check_basis(target)
    if f.basis == target:
        return f
    return _new(target, _from_m_raw(_to_m_raw(f), target))


def multiply(f, g):
    """Product in Sym, returned in the basis of f.

    Route: monomial pivot via orbit-counted m-basis products; if either
    factor is a powersum expression the product is taken in the powersum
    basis instead (partition concatenation), which keeps rational powersum
    elements multipliable.
    """
    if f.basis == 'p' or g.basis == 'p':
        fp, gp = convert(f, 'p'), convert(g, 'p')
        out = {}
        for lam, a in fp.coeffs.items():
            for mu, b in gp.coeffs.items():
                nu = tuple(sorted(lam + mu, reverse=True))
                out[nu] = out.get(nu, 0) + a * b
        return convert(_new('p', out), f.basis)
    prod = _m_mult_raw(_to_m_raw(f), _to_m_raw(g))
    return _new(f.basis, _from_m_raw(prod, f.basis))


#############################################
# polynomial expansion (the oracle)         #
#############################################

def monomial_expand(f, nvars):
    """Image of f in Z[x_1..x_nvars], as an exponent-tuple -> scalar map.

    Faithful on spans of partitions with at most nvars parts; callers using
    this as the product oracle should pass nvars >= total degree, which
    guarantees faithfulness outright.  InsufficientVariables is raised when
    some term of f has more parts than nvars and would be silently dropped.
    This routine knows nothing about structure constants, only
    rearrangements of parts, which is what makes it an independent oracle
    for multiply/convert.
    """
    if nvars < 1:
        raise InsufficientVariables('need at least one variable')
    out = {}
    for lam, c in _to_m_raw(f).items():
        if len(lam) > nvars:
            raise InsufficientVariables(
                f'term m{render_partition(lam)} has {len(lam)} parts, '
                f'nvars={nvars} would drop it')
        for alpha in _distinct_perms(tuple(lam) + (0,) * (nvars - len(lam))):
            out[alpha] = out.get(alpha, 0) + c
    return {a: c for a, c in out.items() if c != 0}


def poly_mult(P, Q):
    """Product of two exponent-map polynomials over the same variable count.

    Each exponent tuple is packed into one int whose digits, in base
    B = (largest exponent in P) + (largest exponent in Q) + 1, are the
    exponents.  No exponent of the product reaches B, so adding two packed
    keys adds the tuples entrywise with no carries; the exponent tuple of
    each distinct product key is formed once, from its first pair.
    """
    if not P or not Q:
        return {}
    base = max(max(a, default=0) for a in P) + max(max(b, default=0) for b in Q) + 1

    def pack(alpha):
        key = 0
        for x in alpha:
            key = key * base + x
        return key

    packed_q = [(pack(b), b, cb) for b, cb in Q.items()]
    out = {}
    first = {}
    for a, ca in P.items():
        ka = pack(a)
        for kb, b, cb in packed_q:
            key = ka + kb
            if key in out:
                out[key] += ca * cb
            else:
                out[key] = ca * cb
                first[key] = (a, b)
    return {tuple(map(add, *first[key])): c for key, c in out.items() if c != 0}


#############################################
# Hopf structure                            #
#############################################

def _to_h_raw(f):
    """f as a complete-basis partition -> coefficient map (rationals allowed)."""
    if f.basis == 'h':
        return dict(f.coeffs)
    out = _from_m_raw(_to_m_raw(f), 'h')
    return {lam: c for lam, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _coproduct_h(lam):
    """Delta(h_lam) as sorted (((alpha, beta), coeff), ...) items.

    Computed multiplicatively from Delta(h_n) = sum_i h_i (x) h_{n-i}.
    """
    pairs = {((), ()): 1}
    for part in lam:
        nxt = {}
        for (al, be), c in pairs.items():
            for i in range(part + 1):
                al2 = tuple(sorted(al + ((i,) if i else ()), reverse=True))
                be2 = tuple(sorted(be + ((part - i,) if part - i else ()),
                                   reverse=True))
                nxt[(al2, be2)] = nxt.get((al2, be2), 0) + c
        pairs = nxt
    return tuple(sorted(pairs.items(),
                        key=lambda kv: (partition_key(kv[0][0]),
                                        partition_key(kv[0][1]))))


def coproduct(f):
    """Delta(f) as a list of (coeff, left, right) triples.

    Left/right factors are unit-coefficient complete-basis elements; all
    scalars (including any rational powersum content of f) live in coeff.
    """
    acc = {}
    for lam, c in _to_h_raw(f).items():
        for (al, be), k in _coproduct_h(lam):
            acc[(al, be)] = acc.get((al, be), 0) + c * k
    triples = []
    for (al, be) in sorted(acc, key=lambda ab: (partition_key(ab[0]),
                                                partition_key(ab[1]))):
        c = acc[(al, be)]
        if c != 0:
            triples.append((Fraction(c), basis_element('h', al),
                            basis_element('h', be)))
    return triples


def counit(f):
    """Coefficient of the empty partition."""
    return Fraction(f.coeffs.get((), 0))


@lru_cache(maxsize=None)
def _antipode_h(lam):
    """S(h_lam) in the complete basis, by the graded-connected recursion.

    S(1) = 1; for positive degree, S(x) = -x - sum S(x') x'' over the
    reduced coproduct (both tensor legs of positive degree).
    """
    if not lam:
        return (((), 1),)
    acc = {tuple(lam): -1}
    for (al, be), c in _coproduct_h(lam):
        if al == tuple(lam) or al == ():
            continue
        for ka, va in _antipode_h(al):
            # multiply S(h_al) by h_be: h is multiplicative
            key = tuple(sorted(ka + be, reverse=True))
            acc[key] = acc.get(key, 0) - c * va
    return _sorted_items(acc)


def antipode(f):
    """The Hopf antipode of f, returned in the basis of f."""
    out = {}
    for lam, c in _to_h_raw(f).items():
        for mu, k in _antipode_h(lam):
            out[mu] = out.get(mu, 0) + c * k
    return convert(_new('h', out), f.basis)


#############################################
# pairing, Schur functions, LR coefficients #
#############################################

def hall_pairing(f, g):
    """The Hall pairing, via <m_lam, h_mu> = delta.

    Converts f to the monomial and g to the complete basis; genuinely
    rational powersum inputs surface as NonIntegralResult from convert
    (no direct powersum pairing formula is exposed).
    """
    fm = convert(f, 'm').coeffs
    gh = convert(g, 'h').coeffs
    if len(gh) < len(fm):
        small, other = gh, fm
    else:
        small, other = fm, gh
    return Fraction(sum(c * other.get(lam, 0) for lam, c in small.items()))


def tensor_pairing(a, b, triples):
    """<a (x) b, sum c_i left_i (x) right_i> with the componentwise pairing."""
    total = Fraction(0)
    for c, left, right in triples:
        total += c * hall_pairing(a, left) * hall_pairing(b, right)
    return total


def schur(lam):
    """s_lam in the complete basis (Jacobi-Trudi determinant)."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f'not a partition: {lam!r}')
    return _new('h', dict(_schur_h(lam)))


@lru_cache(maxsize=None)
def _schur_pair_mult(kappa, nu):
    """s_kappa * s_nu in the Schur basis, cached, as sorted items."""
    prod = multiply(basis_element('s', kappa), basis_element('s', nu))
    return _sorted_items(prod.coeffs)


def lr_coefficients(lam, mu):
    """Littlewood-Richardson coefficients c^nu_{lam,mu} as a sparse map."""
    lam, mu = tuple(lam), tuple(mu)
    out = {}
    for nu, c in _schur_pair_mult(lam, mu):
        assert c == int(c) and c > 0
        out[nu] = int(c)
    return out


@lru_cache(maxsize=None)
def _dual_schur_on_schur(kappa, mu):
    """s_kappa^*(s_mu) in the Schur basis: nu -> <s_kappa s_nu, s_mu>."""
    kappa, mu = tuple(kappa), tuple(mu)
    d = sum(mu) - sum(kappa)
    if d < 0:
        return ()
    out = []
    for nu in partitions_of(d):
        c = dict(_schur_pair_mult(kappa, nu)).get(mu, 0)
        if c != 0:
            out.append((nu, c))
    return tuple(out)


def dual_apply(f, g):
    """f^*(g): the adjoint of multiplication by f, applied to g.

    Characterized by <a, f^*(g)> = <f a, g>.  Computed degree by degree in
    the Schur basis and returned in the basis of g.
    """
    fs = convert(f, 's')
    gs = convert(g, 's')
    out = {}
    for kappa, cf in fs.coeffs.items():
        for mu, cg in gs.coeffs.items():
            for nu, k in _dual_schur_on_schur(kappa, mu):
                out[nu] = out.get(nu, 0) + cf * cg * k
    return convert(_new('s', out), g.basis)


#############################################
# wire formats                              #
#############################################

_TERM_RE = re.compile(
    r'^\s*(?P<coeff>-?\d+(?:\s*/\s*\d+)?)?\s*(?P<basis>[mehps])\s*'
    r'\[(?P<parts>[\d,\s]*)\]\s*$')


def parse_symfunc(text):
    """Parse the literal grammar `term (+- term)*`, e.g. 's[2,1] + 2 m[1,1,1]'.

    Single-basis input stays in that basis; mixed-basis input is combined in
    the monomial basis.  '0' parses to the zero element.
    """
    text = text.strip()
    if text == '0':
        return zero('m')
    if not text:
        raise ParseError('empty symmetric-function literal')
    # split into signed terms at top level
    chunks = []
    sign = None  # None means: no sign seen since last term (leading + is implied)
    buf = ''
    for ch in text:
        if ch in '+-':
            if buf.strip():
                chunks.append((sign if sign is not None else 1, buf))
            elif sign is not None or chunks:
                raise ParseError(f'dangling sign in {text!r}')
            sign = 1 if ch == '+' else -1
            buf = ''
        else:
            buf += ch
    if buf.strip():
        chunks.append((sign if sign is not None else 1, buf))
    else:
        raise ParseError(f'trailing sign in {text!r}')
    parts = []
    for sign, chunk in chunks:
        mo = _TERM_RE.match(chunk)
        if not mo:
            raise ParseError(f'bad term {chunk.strip()!r}')
        coeff_text = mo.group('coeff')
        coeff = Fraction(coeff_text.replace(' ', '')) if coeff_text else Fraction(1)
        lam = parse_partition('[' + mo.group('parts').strip() + ']')
        parts.append((sign * coeff, mo.group('basis'), lam))
    bases = {b for _, b, _ in parts}
    if len(bases) == 1:
        basis = bases.pop()
        out = {}
        for c, _, lam in parts:
            out[lam] = out.get(lam, 0) + c
        return SymFunc(basis, out)
    total = zero('m')
    for c, b, lam in parts:
        total = total + SymFunc('m', _m_scaled(b, lam, c))
    return total


def _m_scaled(basis, lam, c):
    return {mu: c * k for mu, k in _basis_to_m(basis, lam)}


def render(f):
    """Deterministic text form of f in its own basis.

    >>> render(parse_symfunc('2 m[1,1] + m[2]'))
    'm[2] + 2 m[1,1]'
    """
    if f.is_zero():
        return '0'
    pieces = []
    for lam, c in f.terms():
        mag = abs(c)
        body = f.basis + render_partition(lam)
        if mag != 1:
            num = str(mag) if mag.denominator == 1 else f'{mag.numerator}/{mag.denominator}'
            body = f'{num} {body}'
        if not pieces:
            pieces.append(body if c > 0 else '-' + body)
        else:
            pieces.append(('+ ' if c > 0 else '- ') + body)
    return ' '.join(pieces)


def to_json(f):
    """JSON-ready form: {basis, terms: [{partition, num, den}, ...]}."""
    return {
        'basis': f.basis,
        'terms': [
            {'partition': list(lam), 'num': c.numerator, 'den': c.denominator}
            for lam, c in f.terms()
        ],
    }


def from_json(obj):
    try:
        coeffs = {tuple(t['partition']): Fraction(t['num'], t['den'])
                  for t in obj['terms']}
        return SymFunc(obj['basis'], coeffs)
    except (KeyError, TypeError) as exc:
        raise ParseError(f'bad SymFunc JSON: {exc}') from None


if __name__ == '__main__':
    import doctest
    doctest.testmod()
