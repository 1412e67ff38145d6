r"""The ring of symmetric functions over Z with five bases and Hopf structure.

Elements are `SymFunc` values: a basis tag ('m', 'e', 'h', 'p', 's') plus a
sparse partition -> coefficient map.  Arithmetic is integer-first: integral
coefficients are stored as `int`, and `Fraction` appears only for the
non-integral coefficients of the powersum basis, the one basis that spans
merely over Q.  The rational-valued scalars -- `hall_pairing`,
`tensor_pairing`, `counit` and the `coproduct` coefficients -- are returned
as `Fraction`.

Every basis change reads rows of the transition matrices M(X, Y)
(Macdonald, ch. I section 6), each built once and cached by `_row`.  A row
into the monomial basis expands X_lam (products for e/h/p, a Jacobi-Trudi
determinant for s); a row out of it reads a cached per-degree m -> X table
built by triangular back-substitution: s_lam and e_lam' are m_lam plus terms
strictly lower in dominance order, and p_lam is a positive multiple of m_lam
plus terms strictly higher, so each m_mu is solved from rows already known.
The h table composes the s table with Jacobi-Trudi, and a row between two
other bases composes a row into m with the table rows out of it.

`monomial_expand` maps elements to honest polynomials in x_1..x_n and, with
`poly_mult`, is the oracle the product routines are tested against.  It
shares no kernel with `convert` or `multiply`: each basis element is read
from its definition (Macdonald, ch. I sections 2-5) by peeling off the last
variable -- one part of lam or none for m_lam, a subset for e, a multiset
for h, a whole power for p, and a horizontal strip of a semistandard
tableau for s -- which gives its coefficient on each m_mu; the polynomial
places every surviving m_mu on the variables.  `poly_mult` multiplies
exponent maps on packed integer keys and builds each exponent tuple once.

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
from itertools import combinations, product

from .combinatorics import (
    conjugate,
    is_partition,
    parse_partition,
    partition_key,
    partitions_of,
    render_partition,
)
from .errors import InsufficientVariables, NonIntegralResult, ParseError
from .linalg import LinComb, render_terms, scalar as _scalar, split_terms

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


class SymFunc(LinComb):
    """A symmetric function in a fixed basis.

    Integral coefficients are stored as int; only the powersum basis may
    hold a non-integral one (NonIntegralResult otherwise, which is how
    `convert` reports genuinely rational powersum combinations).  Sums and
    differences across bases are taken in the basis of the left operand.
    """

    __slots__ = ('basis',)
    _TAGS = ('basis',)
    _RATIONAL = True

    def __new__(cls, basis, coeffs):
        basis = _check_basis(basis)
        for lam in coeffs:
            if not is_partition(lam):
                raise ValueError(f'not a partition: {lam!r}')
        return cls._new(basis, coeffs)

    def _exact(self, lam, c):
        c = super()._exact(lam, c)
        if type(c) is not int and self.basis != 'p':
            raise NonIntegralResult(
                f'coefficient {c} of {lam} is not an integer in basis {self.basis!r}')
        return c

    def _align(self, other):
        return other if other.basis == self.basis else convert(other, self.basis)

    def terms(self):
        """Coefficient items in display order (degree, then reverse-lex)."""
        return sorted(self.coeffs.items(), key=lambda kv: partition_key(kv[0]))

    def homogeneous_parts(self):
        """Map degree -> SymFunc, splitting into homogeneous components."""
        by_deg = {}
        for lam, c in self.coeffs.items():
            by_deg.setdefault(sum(lam), {})[lam] = c
        return {d: self._new(self.basis, cs) for d, cs in sorted(by_deg.items())}

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


_ROW_CACHE = 1 << 13  # rows kept by `_row`


@lru_cache(maxsize=_ROW_CACHE)
def _row(src, dst, lam):
    """X_lam in basis Y (X = src, Y = dst) as sorted items: one row of the
    transition matrix M(X, Y) of Macdonald, ch. I section 6.

    A row into m is the monomial expansion (products of parts for e/h/p,
    Jacobi-Trudi for s), a row out of m the table row itself, and any other
    row composes the two once.  Keeps up to _ROW_CACHE (8192) rows, more
    than the 2,780 rows of degree <= 10 between the five bases.
    """
    if src == dst:
        return ((lam, 1),)
    if dst != 'm':
        if src == 'm':
            return _m_to_basis_table(dst, sum(lam))[lam]
        return _sorted_items(_sum_rows(dict(_row(src, 'm', lam)), 'm', dst))
    if src == 's':
        return _sorted_items(_sum_rows(dict(_schur_h(lam)), 'h', 'm'))
    # e/h/p are multiplicative: expand each part and multiply in m
    out = {(): 1}
    for part in lam:
        if src == 'e':
            factor = {(1,) * part: 1}
        elif src == 'p':
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
        for nu, c in _row(basis, 'm', label[mu]):
            if nu == mu:
                diag = c
                continue
            for lam, k in table[nu]:
                acc[lam] = acc.get(lam, 0) - c * k
        if diag != 1:
            acc = {lam: _scalar(Fraction(c, diag)) for lam, c in acc.items()}
        table[mu] = _sorted_items(acc)
    return table


def _sum_rows(coeffs, src, dst):
    """sum c X_lam over the items lam -> c of coeffs (X = src), in basis dst.

    Unchecked: a rational coefficient passes and cancelled terms stay as
    zeros, which `SymFunc._new` drops.
    """
    out = {}
    for lam, c in coeffs.items():
        for mu, k in _row(src, dst, lam):
            out[mu] = out.get(mu, 0) + c * k
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
    return SymFunc._new(target, _sum_rows(f.coeffs, f.basis, target))


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
        return convert(SymFunc._new('p', out), f.basis)
    prod = _m_mult_raw(_sum_rows(f.coeffs, f.basis, 'm'), _sum_rows(g.coeffs, g.basis, 'm'))
    return SymFunc._new(f.basis, _sum_rows(prod, 'm', f.basis))


#############################################
# polynomial expansion (the oracle)         #
#############################################
# Each basis is read here as a polynomial in x_1..x_n, straight from its
# definition.  Nothing in this section calls the expansions, products or
# tables above, so a wrong entry there cannot cancel out against the oracle.

_ORACLE_CACHE = 1 << 14  # entries per memo below
_CODEC_LIMIT = 1 << 18  # keys and tuples kept per variable count


@lru_cache(maxsize=_ORACLE_CACHE)
def _last_variable(basis, lam):
    """How x_n enters X_lam(x_1..x_n), as (rest, a, count) triples.

    X_lam(x_1..x_n) = sum count * x_n^a * X_rest(x_1..x_{n-1}), read off the
    definitions: m_lam places one part of lam (or none) on x_n; the entries
    n of a semistandard tableau of shape lam fill a horizontal strip
    lam/rest; e_lam, h_lam and p_lam are products with one factor per part
    k, and x_n occurs at most once in the k-subset of variables that e_k
    picks, any number of times in the k-multiset that h_k picks, and in p_k
    as the whole power x_n^k or not at all.
    """
    if basis == 'm':
        out = [(lam, 0, 1)]
        for part in sorted(set(lam)):
            i = lam.index(part)
            out.append((lam[:i] + lam[i + 1:], part, 1))
        return tuple(out)
    if basis == 's':
        rows = [range(below, part + 1) for part, below in zip(lam, lam[1:] + (0,))]
        strips = (tuple(x for x in nu if x) for nu in product(*rows))
        return tuple((nu, sum(lam) - sum(nu), 1) for nu in strips)
    ways = {((), 0): 1}
    for part in lam:
        takes = (0, 1) if basis == 'e' else (0, part) if basis == 'p' else range(part + 1)
        nxt = {}
        for (rest, a), c in ways.items():
            for b in takes:
                left = tuple(sorted(rest + (part - b,), reverse=True)) if b < part else rest
                nxt[left, a + b] = nxt.get((left, a + b), 0) + c
        ways = nxt
    return tuple((rest, a, c) for (rest, a), c in ways.items())


@lru_cache(maxsize=_ORACLE_CACHE)
def _dominant(basis, lam, n, floor):
    """Coefficients of X_lam(x_1..x_n) at exponents alpha_1 >= .. >= alpha_n >= floor.

    Returned as (alpha without its zeros, coeff) items.  Peeling off x_n
    with `_last_variable` leaves X_rest(x_1..x_{n-1}), whose exponents must
    all be at least alpha_n, so only weakly decreasing exponent vectors are
    ever formed.
    """
    if n == 0:
        return (((), 1),) if not lam else ()
    d = sum(lam)
    out = {}
    for rest, a, c in _last_variable(basis, lam):
        # alpha_n is the smallest of n exponents that sum to d
        if floor <= a and a * n <= d:
            for alpha, k in _dominant(basis, rest, n - 1, a):
                key = alpha + (a,) if a else alpha
                out[key] = out.get(key, 0) + c * k
    return tuple(out.items())


def _m_coefficients(basis, lam):
    """X_lam = sum c m_mu, as (mu, c) items: the coefficient of x^mu in X_lam.

    The longest monomial of m_lam or p_lam has l(lam) variables, that of
    e_lam, h_lam or s_lam has |lam|, so in that many variables every m_mu
    shows.
    """
    return _dominant(basis, lam, len(lam) if basis in 'mp' else sum(lam), 0)


@lru_cache(maxsize=4096)
def _orbit(mu, nvars):
    """Exponent tuples of m_mu(x_1..x_nvars): the distinct placements of mu's parts.

    Kept as the keys of a dict so that `dict.fromkeys` reuses their stored
    hashes instead of hashing every tuple again.
    """
    if len(mu) > nvars:
        return {}
    placed = {(): mu}  # exponents of x_1..x_i -> parts not placed yet
    for left in range(nvars - 1, -1, -1):
        placed = {alpha + (a,): rest for alpha, parts in placed.items()
                  for rest, a, _ in _last_variable('m', parts) if len(rest) <= left}
    return dict.fromkeys(placed)


def monomial_expand(f, nvars):
    """Image of f in Z[x_1..x_nvars], as an exponent-tuple -> scalar map.

    Each basis element is expanded from its definition (placements of parts
    for m, subsets for e, multisets for h, powers for p, semistandard
    tableaux for s), which gives its coefficient on each m_mu; the result
    places every surviving m_mu on the variables.  No expansion, product or
    table that `convert` and `multiply` use is called, which is what makes
    this an independent oracle for them.  Faithful on spans of partitions
    with at most nvars parts; callers using this as the product oracle
    should pass nvars >= total degree, which guarantees faithfulness
    outright.  InsufficientVariables is raised when some m_mu that survives
    in f has more parts than nvars and would be silently dropped.
    """
    if nvars < 1:
        raise InsufficientVariables('need at least one variable')
    m = {}
    for lam, c in f.coeffs.items():
        for mu, k in _m_coefficients(f.basis, lam):
            m[mu] = m.get(mu, 0) + c * k
    out = {}
    for mu, c in m.items():
        if not c:
            continue
        if len(mu) > nvars:
            raise InsufficientVariables(
                f'term m{render_partition(mu)} has {len(mu)} parts, '
                f'nvars={nvars} would drop it')
        out.update(dict.fromkeys(_orbit(mu, nvars), c))
    return out


@lru_cache(maxsize=16)
def _codec(nvars):
    """The packed-key memo for nvars variables: [base, tuple -> key, key -> tuple]."""
    return [1, {}, {}]


def _through(memo, keys, make):
    """[memo[k] for k in keys], after storing make(k) for each k memo lacks."""
    for k in set(keys).difference(memo):
        memo[k] = make(k)
    return list(map(memo.__getitem__, keys))


def poly_mult(P, Q):
    """Product of two exponent-map polynomials over the same variable count.

    Each exponent tuple is packed into one int whose digits, in a base B
    above (largest exponent in P) + (largest exponent in Q), are the
    exponents.  No exponent of the product reaches B, so adding two packed
    keys adds the tuples entrywise with no carries.  Keys and tuples go
    through one bounded memo per variable count, whose base only grows, so
    each exponent tuple is built once and shared by every product that
    meets it.
    """
    if not P or not Q:
        return {}
    if len(P) > len(Q):
        P, Q = Q, P  # the longer factor runs in the inner loop
    nvars = len(next(iter(P)))
    need = max(map(max, P)) + max(map(max, Q)) + 1 if nvars else 1
    codec = _codec(nvars)
    if codec[0] < need or len(codec[1]) + len(codec[2]) > _CODEC_LIMIT:
        codec[:] = need, {}, {}  # keys packed in another base are void
    base, to_key, to_tuple = codec

    def pack(alpha):
        key = 0
        for x in alpha:
            key = key * base + x
        to_tuple.setdefault(key, alpha)
        return key

    def unpack(key):
        digits = [0] * nvars
        rest = key
        for i in range(nvars - 1, -1, -1):
            rest, digits[i] = divmod(rest, base)
        alpha = tuple(digits)
        to_key[alpha] = key
        return alpha

    packed_q = list(zip(_through(to_key, Q, pack), Q.values()))
    out = {}
    get = out.get
    for ka, ca in zip(_through(to_key, P, pack), P.values()):
        for kb, cb in packed_q:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    result = dict(zip(_through(to_tuple, out, unpack), out.values()))
    if not all(out.values()):
        result = {alpha: c for alpha, c in result.items() if c}
    return result


#############################################
# Hopf structure                            #
#############################################

_HOPF_CACHE = 1 << 12  # entries per Hopf memo below; degree <= 10 needs 139


@lru_cache(maxsize=_HOPF_CACHE)
def _coproduct_h(lam):
    """Delta(h_lam) as sorted (((alpha, beta), coeff), ...) items.

    Computed multiplicatively from Delta(h_n) = sum_i h_i (x) h_{n-i}.
    Keeps up to _HOPF_CACHE (4096) partitions.
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


@lru_cache(maxsize=_HOPF_CACHE)
def _h_leg(lam):
    """(display key of lam, h_lam), one per partition: SymFunc is immutable,
    so every coproduct shares its tensor legs.  Keeps up to _HOPF_CACHE
    (4096) partitions.
    """
    return partition_key(lam), SymFunc._new('h', {lam: 1})


def coproduct(f):
    """Delta(f) as a list of (coeff, left, right) triples.

    Left/right factors are unit-coefficient complete-basis elements; all
    scalars (including any rational powersum content of f) live in coeff.
    """
    acc = {}
    for lam, c in _sum_rows(f.coeffs, f.basis, 'h').items():
        for pair, k in _coproduct_h(lam):
            acc[pair] = acc.get(pair, 0) + c * k
    legs = [(_h_leg(al), _h_leg(be), c) for (al, be), c in acc.items() if c]
    legs.sort(key=lambda t: (t[0][0], t[1][0]))
    return [(Fraction(c), left, right) for (_, left), (_, right), c in legs]


def counit(f):
    """Coefficient of the empty partition."""
    return Fraction(f.coeffs.get((), 0))


@lru_cache(maxsize=_HOPF_CACHE)
def _antipode_h(lam):
    """S(h_lam) in the complete basis, by the graded-connected recursion.

    S(1) = 1; for positive degree, S(x) = -x - sum S(x') x'' over the
    reduced coproduct (both tensor legs of positive degree).  Keeps up to
    _HOPF_CACHE (4096) partitions.
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
    for lam, c in _sum_rows(f.coeffs, f.basis, 'h').items():
        for mu, k in _antipode_h(lam):
            out[mu] = out.get(mu, 0) + c * k
    return convert(SymFunc._new('h', out), f.basis)


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
    return SymFunc._new('h', dict(_schur_h(lam)))


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
    return convert(SymFunc._new('s', out), g.basis)


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
    parts = []
    for sign, chunk in split_terms(text):
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
        total = total + SymFunc('m', {mu: c * k for mu, k in _row(b, 'm', lam)})
    return total


def render(f):
    """Deterministic text form of f in its own basis.

    >>> render(parse_symfunc('2 m[1,1] + m[2]'))
    'm[2] + 2 m[1,1]'
    """
    return render_terms((f.basis + render_partition(lam), c) for lam, c in f.terms())


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
