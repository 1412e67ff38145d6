r"""The ring of symmetric functions over Z with five bases and Hopf structure.

Elements are `SymFunc` values: a basis tag ('m', 'e', 'h', 'p', 's') plus a
sparse partition -> coefficient map.  Arithmetic is integer-first: integral
coefficients are stored as `int`, and `Fraction` appears only for the
non-integral coefficients of the powersum basis, the one basis that spans
merely over Q.  Even there the work is in int: a row into p holds the
pairings <X_lam, p_rho>, integers since p_rho and the dual basis of X (h,
m, the forgotten functions or s for X = m, h, e, s) lie in Sym over Z, and
X_lam = sum <X_lam, p_rho> / z_rho p_rho is divided out once per term of a
result.  The pairings, which sum looked-up coefficients in int, `counit`
and the `coproduct` coefficients are returned as `Fraction`.

The Schur basis is the hub, as in the categorified Fock space, where
induction adds Pieri strips and restriction removes them.  `_pieri`
multiplies a Schur combination by h_n or e_n, or applies the adjoint, by
the n-strips of `_strips` (Macdonald, ch. I section 5), and `_skew` expands
one Schur factor in h (its s -> h row) into Pieri chains; so products of e,
h and s factors, `lr_coefficients` and `dual_apply` never touch m.  `_mn`
multiplies a Schur combination by p_n through the signed border strips of
`_hooks` (the Murnaghan-Nakayama rule, section 7), which is how an m or s
factor times a p factor is taken in s.  With its left factor in e, h or p a
product concatenates partitions in that basis; any other product with a
factor in m stays in m, since m_lam is dense in s: `_p_times` multiplies
by p_n, which raises one part of m_lam by n, and `_m_mult_basis` reads one
factor in p and applies it to the other.

Basis changes read rows of the transition matrices M(X, Y) (section 6),
each built once and cached by `_row`.  Read directly are s -> m (Kostka
numbers, by peeling horizontal strips), s -> p (the characters
chi^lam(rho) = <s_lam, p_rho>, by peeling border strips), s -> h (the
inverse Kostka numbers, by peeling special rim hooks, the border strips
through the first column: Egecioglu and Remmel, 1990), s -> e (the s -> h
row of lam' under omega), e/h -> s (strips grown on s_()), p -> s and
p -> m (border strips grown, or `_p_times` applied, on the row of lam less
its last part), m -> s (the transpose of s -> h, since m and h are dual
and s is self-dual), e <-> h (e_n = sum_i (-1)^(i-1) h_i e_(n-i), which
omega turns into the same rule for h_n in e) and m -> p, the one row
solved: p_lam is a positive multiple of m_lam plus terms strictly higher
in dominance order, whose m rows are read back through `_row`.  Any other
row, m -> e among them, composes two of these through s.

Delta(h_lam), multiplicative from Delta(h_n) = sum_i h_i (x) h_(n-i), is
one more row of the same table, h -> h (x) h, keyed by pairs of ranks.  A
sum of rows, sum c_lam X_lam in basis Y (`_sum_rows`), ends nearly every
answer, `coproduct` included; a sum of one degree dense enough to pay is
taken on packed ints (Kronecker substitution): each row is one int with a
signed 64-bit slot per partition (per pair of partitions for Delta), so the
sum is one big-int multiply-add per term, read back once.  The slot bound
sum |c| max|row| < 2^63 is checked before each packed sum; sparse,
multi-degree, rational and over-bound sums take the dict loop.  A bilinear
sum, sum a_lam b_mu K(lam, mu), runs through `_pair_sum` over an m-product
or Schur kernel.

`monomial_expand` maps elements to honest polynomials in x_1..x_n and, with
`poly_mult`, is the oracle the product routines are tested against.  It
shares no kernel with `convert` or `multiply`: each basis element is read
from its definition (Macdonald, ch. I sections 2-5) by peeling off the last
variable -- one part of lam or none for m_lam, a subset for e, a multiset
for h, a whole power for p, and a horizontal strip of a semistandard
tableau for s -- which gives its coefficient on each m_mu
(`dominant_expand`); the polynomial places every surviving m_mu on the
variables.  `poly_mult` multiplies exponent maps on packed integer keys and
builds each exponent tuple once.  A symmetric polynomial is fixed by its
coefficients at weakly decreasing exponents, which are its m-coefficients
(Macdonald, ch. I section 2), and a product of symmetric polynomials is
symmetric; so `dominant_product`, which forms only those coefficients of a
product from the m-coefficients of its two factors, decides the same
equalities as `poly_mult` without expanding whole polynomials.

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
import sys
from array import array
from fractions import Fraction
from itertools import compress, product
from operator import mul, sub

from .combinatorics import (
    conjugate,
    dominates,
    is_partition,
    parse_partition,
    partition_key,
    partitions_of,
    render_partition,
)
from .errors import InsufficientVariables, NonIntegralResult, ParseError
from .linalg import LinComb, memo, render_terms, split_terms

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
    'dominant_expand',
    'poly_mult',
    'dominant_product',
    'coproduct',
    'counit',
    'antipode',
    'hall_pairing',
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
# the tag of the rows of the coproduct, h -> h (x) h, keyed by rank pairs;
# not a basis, so `convert` refuses it
_TENSOR = 'h(x)h'

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
    hold a non-integral one (NonIntegralResult otherwise, naming the first
    such coefficient in display order, which is how `convert` reports
    genuinely rational powersum combinations).  Sums and
    differences across bases are taken in the basis of the left operand.
    """

    __slots__ = ('basis',)
    _TAGS = ('basis',)
    _RATIONAL = True
    _ORDER = staticmethod(partition_key)

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
# Pieri strips, transition rows, products   #
#############################################

def _sorted_items(acc):
    """Nonzero items of a partition -> coeff map, in display order: among
    partitions of one size, reverse-lex is descending tuple order."""
    items = sorted(((lam, c) for lam, c in acc.items() if c), reverse=True)
    items.sort(key=lambda kv: sum(kv[0]))
    return tuple(items)


def _orbit_count(lam):
    """Number of distinct orderings of the parts of lam (compositions sorting to lam)."""
    out = math.factorial(len(lam))
    for part in set(lam):
        out //= math.factorial(lam.count(part))
    return out


def _p_times(coeffs, parts):
    """sum c m_lam over the items lam -> c of coeffs, times p_n for each part
    n of parts: m_lam p_n raises one part value v of lam by n (v = 0 opens a
    new part), and the m_nu so reached has the number of parts of nu equal
    to v + n as its coefficient (Macdonald, ch. I sections 2 and 6).
    Unchecked like `_pieri`.
    """
    for n in parts:
        out = {}
        get = out.get
        for lam, c in coeffs.items():
            for v in dict.fromkeys(lam + (0,)):
                i = lam.index(v) if v else len(lam)
                nu = tuple(sorted(lam[:i] + (v + n,) + lam[i + 1:], reverse=True))
                out[nu] = get(nu, 0) + c * nu.count(v + n)
        coeffs = out
    return coeffs


@memo(1 << 12)
def _m_mult_basis(lam, mu):
    """m_lam * m_mu as sorted ((nu, coeff), ...) items, via powersums.

    The factor with fewer parts, say mu, is read in p: its m -> p row, the
    pairings t_rho = <m_mu, p_rho>, lives on the shapes that dominate mu,
    none longer than mu.  Over D, the least common multiple of the z_rho,
    it gives m_lam m_mu = sum t_rho (D / z_rho) m_lam p_rho / D, each
    m_lam p_rho by `_p_times`, and D divides every coefficient exactly (a
    remainder raises).  The bound is more than the 3,132 ordered pairs of
    total degree <= 12; `verify-all` at its defaults fills 40 entries.
    """
    if len(mu) > len(lam):
        lam, mu = mu, lam
    row = _row('m', 'p', mu)
    den = math.lcm(*(_z(rho) for rho, _ in row))
    out = {}
    for rho, k in row:
        k *= den // _z(rho)
        for nu, c in _p_times({lam: 1}, rho).items():
            out[nu] = out.get(nu, 0) + k * c
    if any(c % den for c in out.values()):
        raise ArithmeticError(f'm{lam} m{mu}: a coefficient is not a multiple of {den}')
    return _sorted_items({nu: c // den for nu, c in out.items()})


def _concat(a, b):
    """Product of two partition -> coeff maps in a multiplicative basis: e, h or p."""
    out = {}
    for lam, x in a.items():
        for mu, y in b.items():
            nu = tuple(sorted(lam + mu, reverse=True))
            out[nu] = out.get(nu, 0) + x * y
    return out


@memo(1 << 12)
def _strips(lam, n, grow, vertical=False):
    """The partitions nu with nu/lam (grow) or lam/nu (not grow) an n-strip.

    A horizontal strip has at most one box per column: the two shapes
    interlace, outer_1 >= inner_1 >= outer_2 >= ..., so row i moves by at
    most lam_i - lam_(i+1) boxes, and a growing strip may also lengthen the
    first row freely and open one new row.  A vertical strip (at most one
    box per row) is a horizontal strip of the conjugate shapes, since omega
    swaps h_n and e_n and sends s_lam to s_lam'.  These are the Pieri rules:
    h_n s_lam and e_n s_lam sum s_nu over the horizontal and vertical strips
    grown on lam.
    """
    if vertical:
        return tuple(conjugate(nu) for nu in _strips(conjugate(lam), n, grow))
    caps = [a - b for a, b in zip(lam, lam[1:] + (0,))]
    rows, sign = (lam + (0,), 1) if grow else (lam, -1)
    if grow:
        caps.insert(0, n)
    room = [sum(caps[i:]) for i in range(len(caps) + 1)]
    out = []

    def fill(i, left, head):
        if not left:
            out.append(tuple(x for x in head + rows[i:] if x))
        elif room[i] >= left:
            for t in range(min(caps[i], left) + 1):
                fill(i + 1, left - t, head + (rows[i] + sign * t,))

    fill(0, n, ())
    return tuple(out)


def _pieri(coeffs, parts, grow, vertical=False):
    """sum c s_lam over the items lam -> c of coeffs, times h_n (e_n if
    vertical) for each part n of parts when grow, else under the adjoint
    h_n^* (e_n^*): by the Pieri rules each step adds (removes) the n-strips
    of `_strips`.  Unchecked like `_sum_rows`.
    """
    for n in parts:
        out = {}
        get = out.get
        for lam, c in coeffs.items():
            for nu in _strips(lam, n, grow, vertical):
                out[nu] = get(nu, 0) + c
        coeffs = out
    return coeffs


@memo(1 << 12)
def _hooks(lam, n, grow):
    """The partitions nu with nu/lam (grow) or lam/nu (not grow) a border
    strip of n boxes, as (nu, (-1)^height) pairs, the height being the
    number of rows of the strip less one.

    On the beta-numbers lam_i + l - i of lam, padded with n zero parts when
    growing (a strip opens at most n rows), a border strip moves one bead
    n places to an empty place, and the beads it passes over are its height
    (Macdonald, ch. I section 1, the examples on cores and quotients).
    These are the steps of the Murnaghan-Nakayama rule: p_n s_lam sums
    (-1)^height s_nu over the strips grown on lam (section 3 ex. 11).
    """
    rows = lam + (0,) * n if grow else lam
    top = len(rows) - 1
    beta = [part + top - i for i, part in enumerate(rows)]
    taken = set(beta)
    out = []
    for i, b in enumerate(beta):
        to = b + n if grow else b - n
        if to < 0 or to in taken:
            continue
        passed = sum(1 for x in beta if b < x < to or to < x < b)
        moved = sorted(beta[:i] + [to] + beta[i + 1:], reverse=True)
        nu = tuple(x - top + j for j, x in enumerate(moved) if x - top + j)
        out.append((nu, -1 if passed % 2 else 1))
    return tuple(out)


def _mn(coeffs, parts):
    """sum c s_lam over the items lam -> c of coeffs, times p_n for each
    part n of parts: each step adds the signed border strips of `_hooks`.
    Unchecked like `_pieri`.
    """
    for n in parts:
        out = {}
        get = out.get
        for lam, c in coeffs.items():
            for nu, sign in _hooks(lam, n, True):
                out[nu] = get(nu, 0) + (c if sign > 0 else -c)
        coeffs = out
    return coeffs


@memo(1 << 12)
def _skew(kappa, mu, grow):
    """s_kappa s_mu (grow) or s_kappa^*(s_mu) (not grow) in the Schur basis,
    as sorted items.

    The s -> h row writes s_kappa = sum c_alpha h_alpha (`_row('s', 'h',
    kappa)`), so the product is sum c_alpha h_alpha s_mu and the skew
    sum c_alpha h_alpha^* s_mu, each a chain of Pieri steps on s_mu.  A
    product expands the factor with fewer parts l, whose row sums at most
    l! special rim hook tabloids.  The bound is more than the 1,215 products
    of total degree <= 10 and the 973 skews by |kappa| <= 3 on degree <= 10
    together.
    """
    if grow and (len(mu), sum(mu)) < (len(kappa), sum(kappa)):
        kappa, mu = mu, kappa
    out = {}
    for alpha, c in _row('s', 'h', kappa):
        for nu, k in _pieri({mu: 1}, alpha, grow).items():
            out[nu] = out.get(nu, 0) + c * k
    return _sorted_items(out)


def _pair_sum(a, b, kernel, *args):
    """sum a_lam b_mu kernel(lam, mu, *args) over two partition -> coeff
    maps, each kernel value being (nu, coeff) items: `_m_mult_basis` for a
    product in m, `_skew` for a product or a skew in s.  Unchecked like
    `_sum_rows`: a cancelled term may stay as a zero.
    """
    out = {}
    get = out.get
    for lam, ca in a.items():
        for mu, cb in b.items():
            scale = ca * cb
            if scale:
                for nu, k in kernel(lam, mu, *args):
                    out[nu] = get(nu, 0) + scale * k
    return out


@memo(3 << 12)
def _row(src, dst, lam):
    """X_lam in basis Y (X = src, Y = dst) as sorted items: one row of the
    transition matrix M(X, Y) of Macdonald, ch. I section 6.

    The rows that the module docstring lists are read directly, the m -> p
    row by solving it from the p -> m row with the other m -> p rows that
    it needs, which this memo keeps once; any other row composes two rows
    once, through s.  A row into p holds the pairings <X_lam, p_rho>,
    integers whatever X is, so no row holds a Fraction; the coefficient of
    p_rho is the pairing over z_rho.  The row h -> _TENSOR is
    Delta(h_lam), keyed by rank pairs.  The bound is more than the 2,919
    rows of degree <= 10: 2,780 between the five bases and 139 of Delta,
    and than the 11,909 rows that `verify-all --max-degree 16` reads, 915
    of them Delta's.
    """
    if (src, dst) == ('s', 'm'):
        # the r largest entries of a tableau fill a horizontal strip
        # lam/kappa, and K_{lam,mu} does not depend on the order of the
        # parts of mu, so K_{lam,(r,)+mu} = sum of K_{kappa,mu} over them
        out = {} if lam else {(): 1}
        for r in range(1, sum(lam[:1]) + 1):
            for kappa in _strips(lam, r, False):
                for mu, k in _row('s', 'm', kappa):
                    if not mu or mu[0] <= r:
                        out[(r,) + mu] = out.get((r,) + mu, 0) + k
        return _sorted_items(out)
    if src == 'p' and dst in 'ms':
        prefix = dict(_row(src, dst, lam[:-1])) if lam else {(): 1}
        return _sorted_items(_p_times(prefix, lam[-1:]) if dst == 'm'
                             else _mn(prefix, lam[-1:]))
    if (src, dst) == ('s', 'p'):
        # chi^lam(rho) removes a border strip of rho_1 boxes from lam and
        # reads chi^nu on the rest of rho, whose parts are at most rho_1:
        # a suffix of the row of nu, which display order sorts by its
        # first part, largest first
        out = {} if lam else {(): 1}
        for n in range(1, lam[0] + len(lam) if lam else 1):
            for nu, sign in _hooks(lam, n, False):
                for rho, k in reversed(_row('s', 'p', nu)):
                    if rho and rho[0] > n:
                        break
                    out[(n,) + rho] = out.get((n,) + rho, 0) + sign * k
        return _sorted_items(out)
    if (src, dst) == ('s', 'h'):
        # s_lam sums sign(T) h_type(T) over the special rim hook tabloids T
        # of shape lam (Egecioglu-Remmel); the strip of T through the cell
        # (l, 1) empties the last row, moving one bead b of the beta-numbers
        # lam_i + l - i to 0, so it has b boxes, and the rest of T is a
        # tabloid of the shorter shape nu
        out = {} if lam else {(): 1}
        for i, part in enumerate(lam):
            n = part + len(lam) - 1 - i
            for nu, sign in _hooks(lam, n, False):
                if len(nu) < len(lam):
                    for mu, k in _row('s', 'h', nu):
                        key = tuple(sorted(mu + (n,), reverse=True))
                        out[key] = out.get(key, 0) + sign * k
        return _sorted_items(out)
    if (src, dst) == ('s', 'e'):
        return _row('s', 'h', conjugate(lam))  # omega s_lam' = s_lam, omega h = e
    if (src, dst) == ('m', 's'):
        # m is dual to h and s to itself, so [s_nu] m_lam = <m_lam, s_nu> =
        # [h_lam] s_nu: M(m, s) is the transpose of M(s, h), and s_nu is h_nu
        # plus terms h_mu with mu dominating nu
        return _sorted_items({nu: dict(_row('s', 'h', nu)).get(lam, 0)
                              for nu in partitions_of(sum(lam)) if dominates(lam, nu)})
    if dst == 's' and src in 'eh':
        return _sorted_items(_pieri({(): 1}, lam, True, src == 'e'))
    if {src, dst} == {'e', 'h'}:
        # unrolled, e_n = sum_i (-1)^(i-1) h_i e_(n-i) (Macdonald, ch. I
        # (2.6')) sums (-1)^(n-l) h_alpha over the compositions alpha of n
        # into l parts; omega swaps e and h, so the same row gives h_n in e,
        # and a longer lam multiplies the rows of its parts
        out = {(): 1}
        for n in lam:
            out = _concat(out, {mu: (-1) ** (n - len(mu)) * _orbit_count(mu)
                                for mu in partitions_of(n)})
        return _sorted_items(out)
    if (src, dst) == ('m', 'p'):
        # p_lam is a positive multiple of m_lam plus terms strictly
        # dominating it, so m_lam is the p row of lam less the other terms,
        # each rewritten by its own m row, over the diagonal entry; the rows
        # are the pairings, and <p_lam, p_rho> is z_lam at rho = lam, else 0
        out, diag = {lam: _z(lam)}, 1
        for nu, c in _row('p', 'm', lam):
            if nu == lam:
                diag = c
                continue
            for mu, k in _row('m', 'p', nu):
                out[mu] = out.get(mu, 0) - c * k
        if any(c % diag for c in out.values()):
            raise ArithmeticError(f'm{lam} in p: a coefficient is not a multiple of {diag}')
        return _sorted_items({mu: c // diag for mu, c in out.items()})
    if dst == _TENSOR:
        # Delta(h_lam) from Delta(h_n) = sum_i h_i (x) h_(n-i), Delta being
        # multiplicative; h_alpha (x) h_beta has the key rank(alpha) <<
        # _RANK_BITS | rank(beta) (ranks by `_ranks`), so that int order is
        # display order on the pairs
        pairs = {((), ()): 1}
        for part in lam:
            nxt = {}
            for (al, be), c in pairs.items():
                for i in range(part + 1):
                    key = (tuple(sorted(al + (i,), reverse=True)) if i else al,
                           tuple(sorted(be + (part - i,), reverse=True)) if i < part else be)
                    nxt[key] = nxt.get(key, 0) + c
            pairs = nxt
        return tuple(sorted((_ranks(sum(al))[al] << _RANK_BITS | _ranks(sum(be))[be], c)
                            for (al, be), c in pairs.items()))
    return _sorted_items(_sum_rows(dict(_row(src, 's', lam)), 's', dst))


def _sum_rows(coeffs, src, dst):
    """sum c X_lam over the items lam -> c of coeffs (X = src), in basis dst;
    into p (from another basis) the sum of the pairings <X_lam, p_rho>.

    A sum of one degree that `_add_packed` takes -- dense enough, with int
    coefficients under the slot bound -- is summed as packed rows; any
    other sum, one of several degrees or with a rational coefficient among
    them, row by row in a dict.  Unchecked: a rational coefficient passes,
    and a cancelled term may stay as a zero (the dict loop) or be left out
    (a packed sum), which `SymFunc._new` drops either way; with src = dst
    it is coeffs itself.
    """
    if src == dst:
        return coeffs
    out = {}
    if len(coeffs) >= _PACK_MIN_ROWS:
        degrees = set(map(sum, coeffs))
        if len(degrees) == 1 and _add_packed(coeffs, degrees.pop(), src, dst, out):
            return out
    get = out.get
    for lam, c in coeffs.items():
        for mu, k in _row(src, dst, lam):
            out[mu] = get(mu, 0) + c * k
    return out


#############################################
# packed sums (Kronecker substitution)      #
#############################################
# A vector of ints indexed by an ordered key list is packed into one int
# with a signed 64-bit slot per key: the slots are laid out as an
# array('Q') read in native byte order, and the int is (positive part) -
# (negative part).  A sum of packed rows times int coefficients is then one
# multiply-add per row on big ints, and its slots are read back once:
# adding the bias B, which holds 2^63 in every slot, lifts each slot into
# [0, 2^64) without carries exactly when every slot of the sum lies in
# [-2^63, 2^63), and xor with B restores the two's complement bytes
# (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).  The
# decode never fails, so an overflowing slot would be silently wrong: the
# bound |slot| <= sum |c| max|row| < 2^63 is checked before every packed
# sum, from the max|row| stored with each row.

_SLOT_LIMIT = 1 << 63  # every slot of a packed sum stays below this in absolute value
# Below either floor a packed sum costs more than the dict loop: in timings
# of single sums the crossover sat near 50 row entries, so 4 rows of size
# 10 (42 slots) already pay, while rows of size 6 or less mostly do not.
_PACK_MIN_ROWS = 4  # fewer rows of one degree are summed by the dict loop
_PACK_MIN_CELLS = 150  # and so are rows x slots of one degree below this


def _layout(keys):
    """(keys, key -> slot, the bias B with 2^63 in each of their slots)."""
    bias = array('Q', [_SLOT_LIMIT]) * len(keys)
    return keys, {key: i for i, key in enumerate(keys)}, int.from_bytes(bias, sys.byteorder)


@memo(1 << 13)
def _row_layout(tensor, n):
    """The slots of a packed row of size n, one layout per size and kind:
    `partitions_of(n)`, which is display order, for the five bases, or for
    a row into _TENSOR (tensor true) the rank-pair keys of every pair
    (alpha, beta) with |alpha| + |beta| = n, in int order."""
    if tensor:
        return _layout(tuple(a << _RANK_BITS | b for k in range(n + 1)
                             for a in _ranks(k).values() for b in _ranks(n - k).values()))
    return _layout(partitions_of(n))


def _pack(items, layout):
    """The (key, int) items in the slots of layout, as (packed int, max
    |entry|).  An entry of 2^63 or more packs nothing: the row is kept as 0
    with its true maximum, so any sum that takes it with a nonzero
    coefficient fails the slot bound and runs the dict loop."""
    keys, index, _ = layout
    slots = [0] * len(keys)
    for key, c in items:
        slots[index[key]] = c
    top = max(map(abs, slots))
    if top >= _SLOT_LIMIT:
        return 0, top
    pos = array('Q', [c if c > 0 else 0 for c in slots])
    neg = array('Q', [-c if c < 0 else 0 for c in slots])
    return int.from_bytes(pos, sys.byteorder) - int.from_bytes(neg, sys.byteorder), top


@memo(3 << 12)
def _packed_row(src, dst, lam):
    """`_row(src, dst, lam)` packed in the slots of its `_row_layout`.

    Reads `_row` through the module, so a patched row is packed as it
    reads.  A row of size n between bases holds 8 p(n) bytes of slots, 336
    at n = 10 and 1,080 at n = 14, so a full memo of 12,288 size-14 rows
    holds about 17 MB (13 MB of slots), less than the `_row` entries it
    packs when they are dense.  A Delta row of size n holds 8 bytes per
    pair slot: 481 slots (3,848 bytes) at n = 10 and 2,665 (21,320 bytes)
    at n = 14, one row per partition, so the 139 of size <= 10 fill 0.29
    MB and the 508 of size <= 14 5.7 MB.
    """
    return _pack(_row(src, dst, lam), _row_layout(dst == _TENSOR, sum(lam)))


def _add_packed(part, n, src, dst, out):
    """Add sum c `_packed_row(src, dst, lam)` over the items lam -> c of
    part, all of size n, to out, when they are at least _PACK_MIN_ROWS ints
    that fill at least _PACK_MIN_CELLS slots of the `_row_layout` of size n
    (terms times slots) and the bound sum |c| max|row| < 2^63 holds;
    return whether it did.  The nonzero slots enter out in layout order.
    """
    keys, _, bias = _row_layout(dst == _TENSOR, n)
    if (len(part) < _PACK_MIN_ROWS or len(part) * len(keys) < _PACK_MIN_CELLS
            or set(map(type, part.values())) != {int}):
        return False
    values, tops = zip(*(_packed_row(src, dst, lam) for lam in part))
    if sum(map(mul, map(abs, part.values()), tops)) >= _SLOT_LIMIT:
        return False
    total = sum(map(mul, part.values(), values))
    slots = array('q', ((total + bias) ^ bias).to_bytes(8 * len(keys), sys.byteorder))
    out.update(zip(compress(keys, slots), compress(slots, slots)))
    return True


@memo(1 << 13)
def _z(rho):
    """z_rho = prod_i i^(m_i) m_i!, m_i parts equal to i: <p_rho, p_rho>."""
    return math.prod(part ** rho.count(part) * math.factorial(rho.count(part))
                     for part in set(rho))


def _from_pairings(pairings):
    """sum t_rho / z_rho p_rho over the items rho -> t_rho of pairings: each
    term is divided by z_rho once, here."""
    return SymFunc._new('p', {rho: Fraction(t, _z(rho)) if t % _z(rho) else t // _z(rho)
                              for rho, t in pairings.items()})


def _in_basis(basis, coeffs, src):
    """The SymFunc in basis of the combination coeffs in basis src."""
    out = _sum_rows(coeffs, src, basis)
    return _from_pairings(out) if basis == 'p' != src else SymFunc._new(basis, out)


def convert(f, target):
    """Express f in the target basis.

    Raises NonIntegralResult if the target is any basis but powersum and a
    coefficient comes out non-integral (the signature of a genuinely
    rational powersum combination outside Sym).
    """
    target = _check_basis(target)
    if f.basis == target:
        return f
    return _in_basis(target, f.coeffs, f.basis)


def multiply(f, g):
    """Product in Sym, returned in the basis of f.

    The route follows the bases of the factors.  With f in e, h or p the
    product is taken in that basis, where partitions concatenate, g read in
    e or h by one row sum, in p by its pairings; with only g in p, each
    p_rho of g adds border strips to f read in s (`_mn`).  Either way a
    rational powersum factor multiplies, and only the result is checked in
    its basis.  With a monomial factor the product is taken in m, where
    `_m_mult_basis` reads one factor of each pair in p and raises the parts
    of the other; otherwise in s, by the s -> h rows and Pieri (`_skew`).
    """
    if f.basis in 'eh':
        return SymFunc._new(f.basis, _concat(f.coeffs, _sum_rows(g.coeffs, g.basis, f.basis)))
    if f.basis == 'p':
        if g.basis == 'p':
            return SymFunc._new('p', _concat(f.coeffs, g.coeffs))
        # p_rho (t / z_sigma) p_sigma has the pairing t z_nu / z_sigma at
        # nu = rho + sigma, and z_sigma divides z_nu
        prod = {}
        for sigma, t in _sum_rows(g.coeffs, g.basis, 'p').items():
            for rho, c in f.coeffs.items():
                nu = tuple(sorted(rho + sigma, reverse=True))
                prod[nu] = prod.get(nu, 0) + c * t * (_z(nu) // _z(sigma))
        return _from_pairings(prod)
    if g.basis == 'p':
        fs = _sum_rows(f.coeffs, f.basis, 's')
        prod = {}
        for rho, c in g.coeffs.items():
            for nu, k in _mn(fs, rho).items():
                prod[nu] = prod.get(nu, 0) + c * k
        return _in_basis(f.basis, prod, 's')
    pivot = 'm' if 'm' in (f.basis, g.basis) else 's'
    fx, gx = _sum_rows(f.coeffs, f.basis, pivot), _sum_rows(g.coeffs, g.basis, pivot)
    prod = _pair_sum(fx, gx, _m_mult_basis) if pivot == 'm' else _pair_sum(fx, gx, _skew, True)
    return SymFunc._new(f.basis, _sum_rows(prod, pivot, f.basis))


#############################################
# polynomial expansion (the oracle)         #
#############################################
# Each basis is read here as a polynomial in x_1..x_n, straight from its
# definition.  Nothing in this section calls the expansions, products or
# tables above, so a wrong entry there cannot cancel out against the oracle.

_CODEC_LIMIT = 1 << 18  # keys and tuples kept per variable count


@memo(1 << 14, 'oracle')
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


@memo(1 << 14, 'oracle')
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


@memo(4096, 'oracle')
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


def dominant_expand(f, nvars):
    """The coefficients of `monomial_expand(f, nvars)` at weakly decreasing
    exponents, each keyed without its zeros: f = sum c m_mu as a mu -> c map.

    Read from the definitions like `monomial_expand`, which places each m_mu
    of this map on the variables.  InsufficientVariables is raised when some
    m_mu that survives in f has more parts than nvars.
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
        out[mu] = c
    return out


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
    out = {}
    for mu, c in dominant_expand(f, nvars).items():
        out.update(dict.fromkeys(_orbit(mu, nvars), c))
    return out


@memo(16, 'oracle')
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


@memo(1 << 10, 'oracle')
def _splits(lam):
    """(beta, gamma, k): k exponent vectors b <= lam, on lam's parts, sort to beta
    and their complements lam - b to gamma, both without zeros."""
    counts = {}
    for b in product(*[range(part + 1) for part in lam]):
        key = tuple(tuple(sorted(filter(None, v), reverse=True)) for v in (b, map(sub, lam, b)))
        counts[key] = counts.get(key, 0) + 1
    return tuple((beta, gamma, k) for (beta, gamma), k in counts.items())


def dominant_product(P, Q, degrees, nvars):
    """The product of two symmetric polynomials in nvars variables, all three
    keyed as by `dominant_expand`: f g = sum c m_mu from those of f and g.

    The coefficient at lam sums P(b) Q(lam - b) over the exponent vectors
    b <= lam, for each partition lam with at most nvars parts of a degree in
    degrees, which must hold every degree that a term of P and a term of Q
    add up to.  A symmetric polynomial's coefficient at b is its
    m-coefficient at b sorted, so the sum runs over the triples of
    `_splits(lam)` (at most 32 vectors b when |lam| <= 5).
    """
    if not P or not Q:
        return {}
    out = {}
    for n in sorted(degrees):
        for lam in partitions_of(n):
            if len(lam) > nvars:
                continue
            total = 0
            for beta, gamma, k in _splits(lam):
                c = P.get(beta)
                if c:
                    total += k * c * Q.get(gamma, 0)
            if total:
                out[lam] = total
    return out


#############################################
# Hopf structure                            #
#############################################

_RANK_BITS = 32  # ranks of the partitions of size <= 100 fit in this many bits
_RANK_MASK = (1 << _RANK_BITS) - 1
# Fraction is immutable, so coproducts share the scalars they return
_fraction = memo(1 << 12)(Fraction)


@memo(1 << 12)
def _ranks(n):
    """Partition of n -> its rank in display order: every partition of a
    smaller size first, then the order of `partitions_of(n)`."""
    start = sum(len(partitions_of(k)) for k in range(n))
    return {lam: start + i for i, lam in enumerate(partitions_of(n))}


@memo(1 << 12)
def _h_leg(rank):
    """h_lam for the partition lam of this rank in display order, one per
    partition: SymFunc is immutable, so every coproduct shares its tensor
    legs.
    """
    n = 0
    while rank >= len(partitions_of(n)):
        rank -= len(partitions_of(n))
        n += 1
    return SymFunc._new('h', {partitions_of(n)[rank]: 1})


def coproduct(f):
    """Delta(f) as a list of (coeff, left, right) triples.

    Left/right factors are unit-coefficient complete-basis elements; all
    scalars (including any rational powersum content of f) live in coeff.
    f is read in h, and sum c Delta(h_lam) is the row sum of f into
    _TENSOR (`_sum_rows`), whose keys are pairs of ranks.
    """
    acc = _sum_rows(_sum_rows(f.coeffs, f.basis, 'h'), 'h', _TENSOR)
    return [(_fraction(acc[key]), _h_leg(key >> _RANK_BITS), _h_leg(key & _RANK_MASK))
            for key in sorted(acc) if acc[key]]


def counit(f):
    """Coefficient of the empty partition."""
    return Fraction(f.coeffs.get((), 0))


def antipode(f):
    """The Hopf antipode S = (-1)^deg omega of f, in the basis of f: S(s_lam)
    = (-1)^|lam| s_lam', S(p_lam) = (-1)^l(lam) p_lam, S(e_lam) = (-1)^|lam|
    h_lam and S(h_lam) = (-1)^|lam| e_lam, read back by one row sum; m is
    read in e.  A rational p input raises unless S(f) is integral in h.
    """
    if f.basis == 's':
        return SymFunc._new('s', {conjugate(lam): (-1) ** sum(lam) * c
                                  for lam, c in f.coeffs.items()})
    if f.basis == 'p':
        out = SymFunc._new('p', {lam: (-1) ** len(lam) * c for lam, c in f.coeffs.items()})
        if not all(type(c) is int for c in out.coeffs.values()):
            convert(out, 'h')
        return out
    src, dst = ('h', 'e') if f.basis == 'h' else ('e', 'h')
    signed = {lam: (-1) ** sum(lam) * c for lam, c in _sum_rows(f.coeffs, f.basis, src).items()}
    return SymFunc._new(f.basis, _sum_rows(signed, dst, f.basis))


#############################################
# pairing, Schur functions, LR coefficients #
#############################################

def hall_pairing(f, g):
    """The Hall pairing, where <m_lam, h_mu> = <s_lam, s_mu> = delta: a side
    in p takes f to m and g to h by `convert` (NonIntegralResult outside Sym),
    else each side is read by `_sum_rows` in the dual pair (m, h), (h, m) or
    (s, s) leaving the fewest terms to convert; lookups are summed in int.
    """
    if 'p' in (f.basis, g.basis):
        f, g = convert(f, 'm'), convert(g, 'h')
    x, y = min(('mh', 'hm', 'ss'), key=lambda xy: (f.basis != xy[0]) * len(f.coeffs)
               + (g.basis != xy[1]) * len(g.coeffs))
    fx, gy = _sum_rows(f.coeffs, f.basis, x), _sum_rows(g.coeffs, g.basis, y)
    return Fraction(sum(c * gy.get(lam, 0) for lam, c in fx.items()))


def schur(lam):
    """s_lam in the complete basis: the inverse Kostka numbers, read by
    peeling special rim hooks (the s -> h row)."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f'not a partition: {lam!r}')
    return SymFunc._new('h', dict(_row('s', 'h', lam)))


def lr_coefficients(lam, mu):
    """Littlewood-Richardson coefficients c^nu_{lam,mu} as a sparse map: the
    Schur expansion of s_lam s_mu, by the s -> h row of one factor and
    Pieri (`_skew`), without the monomial basis.
    """
    return dict(_skew(tuple(lam), tuple(mu), True))


def dual_apply(f, g):
    """f^*(g): the adjoint of multiplication by f, applied to g.

    Characterized by <a, f^*(g)> = <f a, g>.  Both sides are read in the
    Schur basis, where s_kappa^* is the sum of Pieri strip removals that
    the s -> h row of kappa gives (`_skew`); returned in the basis of g.
    """
    fs, gs = convert(f, 's').coeffs, convert(g, 's').coeffs
    return _in_basis(g.basis, _pair_sum(fs, gs, _skew, False), 's')


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
        try:
            coeff = Fraction(coeff_text.replace(' ', '')) if coeff_text else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f'zero denominator in {chunk.strip()!r}') from None
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
        total = total + SymFunc('m', _sum_rows({lam: c}, b, 'm'))
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
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f'bad SymFunc JSON: {exc}') from None


if __name__ == '__main__':
    import doctest
    doctest.testmod()
