r"""Nilcoxeter algebras N_n, their induction/restriction bimodules, and K-theory.

N_n has Z-basis {u_s : s in S_n} with u_s u_t = u_{st} when lengths add and 0
otherwise (the one rule `_times`, None for 0); in particular u_i^2 = 0 for the
generators u_i = u_{s_i}.  From that rule the module reads the algebra
arithmetic, the action matrices and a mechanical check of the bimodule
decomposition N_{n+1} = N_n (+) N_n (x)_{N_{n-1}} N_n behind the categorified
relation d x = x d + 1, on the explicit free right-module basis of N_{n+1}
over N_n.  It also holds the Grothendieck-group model: induction/restriction
on classes of simples and projectives matches multiplication by x and
differentiation d on the two polynomial lattices of the weyl module.

>>> u1, u2 = nc_generator(1, 3), nc_generator(2, 3)
>>> nc_product(u1, u1).is_zero()
True
>>> nc_product(u1, u2) == NilcoxElem(3, {(2, 3, 1): 1})
True
"""

from __future__ import annotations

import math
import re

from .combinatorics import (
    all_perms,
    coset_decompose,
    coset_rep,
    identity_perm,
    is_permutation,
    is_reduced,
    perm_extend,
    perm_length,
    perm_mult,
    reduced_word,
    simple_transposition,
    word_eval,
)
from .errors import (
    BoundExceeded,
    FlavorMismatch,
    ParseError,
    RankMismatch,
    Report,
    report_json,
)
from .linalg import LinComb, matrix_rank, render_terms, split_terms
from .weyl import DIVIDED_POWERS, MONOMIALS, PolyVector, WeylElement, weyl_apply

__all__ = [
    'MAX_RANK',
    'G_SIMPLES',
    'K_PROJECTIVES',
    'NilcoxElem',
    'KVector',
    'nc_unit',
    'nc_generator',
    'nc_product',
    'nc_word_eval',
    'x_right_basis',
    'verify_bimodule_iso',
    'simple_class',
    'projective_class',
    'ind_K',
    'res_K',
    'k_pairing',
    'hom_space_dimension',
    'regular_action_matrices',
    'simple_action_matrices',
    'phi_G',
    'phi_K',
    'verify_weyl_squares',
    'parse_nilcox',
    'render_nilcox',
    'report_json',
]

G_SIMPLES = 'G_simples'
K_PROJECTIVES = 'K_projectives'


def _word_key(sigma):
    """Display order of u_sigma: shortest reduced word first, then by the word."""
    word = reduced_word(sigma)
    return len(word), word


class NilcoxElem(LinComb):
    """Integer combination of basis elements u_s, s a permutation of fixed rank."""

    __slots__ = ('n',)
    _TAGS = ('n',)
    _MISMATCH = RankMismatch
    _ORDER = staticmethod(_word_key)

    def __new__(cls, n, coeffs):
        for sigma in coeffs:
            if len(sigma) != n or not is_permutation(sigma):
                raise ValueError(f'{sigma!r} is not a permutation of rank {n} for N_{n}')
        return cls._new(n, coeffs)

    def __mul__(self, other):
        if isinstance(other, NilcoxElem):
            return nc_product(self, other)
        return NotImplemented

    def __repr__(self):
        return f'NilcoxElem({self.n}, {render_nilcox(self)!r})'


def nc_unit(n):
    return NilcoxElem(n, {identity_perm(n): 1})


def nc_generator(i, n):
    """u_i = u_{s_i} inside N_n (needs 1 <= i <= n-1)."""
    return NilcoxElem(n, {simple_transposition(i, n): 1})


def _times(s, t):
    """u_s u_t = u_{st} when l(st) = l(s) + l(t), else 0: st, or None for 0.

    A None factor is 0 too, so products chain.

    >>> _times((2, 1, 3), (1, 3, 2)), _times((2, 1, 3), (2, 1, 3))
    ((2, 3, 1), None)
    """
    if s is None or t is None:
        return None
    st = perm_mult(s, t)
    return st if perm_length(st) == perm_length(s) + perm_length(t) else None


def nc_product(a, b):
    """The basis product rule `_times`, extended bilinearly.

    >>> nc_product(nc_generator(1, 3), nc_generator(1, 3)).is_zero()
    True
    """
    if a.n != b.n:
        raise RankMismatch(f'cannot multiply N_{a.n} by N_{b.n}')
    out = {}
    for sigma, c1 in a.coeffs.items():
        for tau, c2 in b.coeffs.items():
            st = _times(sigma, tau)
            if st is not None:
                out[st] = out.get(st, 0) + c1 * c2
    return NilcoxElem._new(a.n, out)


def nc_word_eval(word, n):
    """Oracle: evaluate u_{i1} ... u_{ik} by string rewriting alone.

    Explores every word reachable through braid moves (i, i+1, i) <->
    (i+1, i, i+1) and distant swaps; if any reachable word has an adjacent
    repeated letter the product is 0 (u_i^2 = 0), otherwise the word is
    reduced and the product is the single basis vector it spells.

    >>> nc_word_eval((1, 2, 1), 3) == nc_word_eval((2, 1, 2), 3)
    True
    >>> nc_word_eval((1, 2, 1, 2), 3).is_zero()
    True
    """
    start = tuple(word)
    for i in start:
        if not 1 <= i <= n - 1:
            raise ValueError(f'generator index {i} out of range for N_{n}')
    seen = set()
    queue = [start]
    while queue:
        w = queue.pop()
        if w in seen:
            continue
        seen.add(w)
        for p in range(len(w) - 1):
            if w[p] == w[p + 1]:
                return NilcoxElem._new(n, {})
        for p in range(len(w) - 1):
            if abs(w[p] - w[p + 1]) >= 2:
                queue.append(w[:p] + (w[p + 1], w[p]) + w[p + 2:])
        for p in range(len(w) - 2):
            i, j, k = w[p], w[p + 1], w[p + 2]
            if i == k and abs(i - j) == 1:
                queue.append(w[:p] + (j, i, j) + w[p + 3:])
    return NilcoxElem._new(n, {word_eval(start, n): 1})


def x_right_basis(n):
    """Free basis of N_{n+1} as a right N_n-module: 1, u_n, u_{n-1}u_n, ..., u_1...u_n.

    Element number j is u_{r_i} for i = n+1-j, where r_i = s_i s_{i+1} ... s_n
    is the minimal coset representative sending n+1 to i.

    >>> [render_nilcox(b) for b in x_right_basis(2)]
    ['u[]', 'u[2]', 'u[1,2]']
    """
    if n < 0:
        raise ValueError('rank must be nonnegative')
    return [NilcoxElem._new(n + 1, {coset_rep(i, n + 1): 1})
            for i in range(n + 1, 0, -1)]


# Ceiling checked before any work, timed on a 2-core VM: verify_bimodule_iso(5)
# takes 25-50 ms in process and rank 6 0.6-0.7 s, which leaves the lengths
# memo as it found it (rank-7 lengths are counted outside it, `perm_length`).
# The ceiling stays at 5 because raising it changes the error exit of
# `nilcox verify-iso --n 6`, which CI compares with the base commit.
MAX_RANK = 5


def verify_bimodule_iso(n):
    """Check N_{n+1} = m_1(N_n) (+) m_2(N_n (x)_{N_{n-1}} N_n) explicitly.

    m_1 is the unit inclusion and m_2(a (x) b) = a u_n b.  The report covers
    injectivity of both maps, disjointness and joint spanning of the images
    (n! + n*n! = (n+1)!), the membership criterion for the m_1 image, and
    compatibility with the left and right N_n-actions on generators (which
    for m_2 also exercises well-definedness over the tensor product).

    A product of basis elements is a basis element or 0 (`_times`), so the
    check runs on permutations with None for 0, as bimodel.mackey_check does
    for the group algebra.  Every generator is checked on every basis tensor.

    Raises VerificationFailure naming the first violated check; the full
    report rides on the exception.
    """
    if not 1 <= n <= MAX_RANK:
        raise BoundExceeded(f'rank {n} outside verified range 1..{MAX_RANK}')
    report = Report(n=n)
    m = n + 1
    sn = list(all_perms(n))
    m1 = {s: perm_extend(s, m) for s in sn}
    m1_images = set(m1.values())
    report.check('m1-injective', len(m1_images) == len(sn),
                 f'{len(m1_images)} distinct images of {len(sn)} basis vectors')

    # free basis of the tensor square: (i, tau) with b_i = u_{r_i} in N_n
    # running over x_right_basis(n-1) and tau over S_n
    tensor_basis = [(i, tau) for i in range(n, 0, -1) for tau in sn]
    u_n_top = simple_transposition(n, m)
    m2 = {(i, tau): _times(m1[coset_rep(i, n)], _times(u_n_top, m1[tau]))
          for i, tau in tensor_basis}
    images = list(m2.values())
    single = None not in images  # else the image checks read the tensors before the first 0
    m2_images = set(images if single else images[:images.index(None)])
    report.check('m2-basis-to-basis', single,
                 'every basis tensor maps to a single u_sigma with coefficient 1')
    report.check('m2-injective', single and len(m2_images) == len(tensor_basis),
                 f'{len(m2_images)} distinct images of {len(tensor_basis)} tensors')

    overlap = m1_images & m2_images
    report.check('images-disjoint', single and not overlap,
                 f'{len(overlap)} common basis vectors')

    fixed_top = {s for s in all_perms(m) if s[m - 1] == m}
    report.check('m1-image-criterion', m1_images == fixed_top,
                 'u_sigma lies in the m_1 image exactly when sigma fixes the top letter')

    total = len(m1_images) + len(m2_images)
    spanned = single and (m1_images | m2_images) == set(all_perms(m))
    report.check('images-span', spanned and total == math.factorial(m),
                 f'{math.factorial(n)} + {n}*{math.factorial(n)} = {total} '
                 f'(expect {math.factorial(m)})')

    gens = [simple_transposition(j, n) for j in range(1, n)]
    ok_m1 = all(m1.get(_times(g, s)) == _times(m1[g], m1[s])
                and m1.get(_times(s, g)) == _times(m1[s], m1[g])
                for g in gens for s in sn)
    report.check('m1-bimodule-map', ok_m1, 'm_1 commutes with both actions on generators')

    # left action: u_j u_{r_i} = u_{r_i'} u_rho with rho in S_{n-1}, and rho
    # slides through the tensor onto tau; a zero slide is no key of m2, so 0
    def left(g, i, tau):
        pushed = _times(g, coset_rep(i, n))
        if pushed is None:
            return None
        i2, rho = coset_decompose(pushed)
        return m2.get((i2, _times(perm_extend(rho, n), tau)))

    ok_left = all(left(g, i, tau) == _times(m1[g], m2[i, tau])
                  for g in gens for i, tau in tensor_basis)
    report.check('m2-left-linear', ok_left,
                 'm_2 commutes with the left action (well-defined over the tensor)')

    ok_right = all(m2.get((i, _times(tau, g))) == _times(m2[i, tau], m1[g])
                   for g in gens for i, tau in tensor_basis)
    report.check('m2-right-linear', ok_right, 'm_2 commutes with the right action')
    return report.close(('bimodule decomposition check {check!r} failed at n={n}: '
                         '{detail}').format_map)


#######################
# Grothendieck groups #
#######################


class KVector(LinComb):
    """Integer vector of classes: sum c_n [L_n] (flavor G) or sum c_n [N_n] (flavor K)."""

    __slots__ = ('flavor',)
    _TAGS = ('flavor',)
    _MISMATCH = FlavorMismatch
    _ORDER = staticmethod(int)  # indices, shown from 0 up

    def __new__(cls, flavor, coords):
        if flavor not in (G_SIMPLES, K_PROJECTIVES):
            raise ValueError(f'unknown flavor {flavor!r}')
        for nn in coords:
            if not (type(nn) is int and nn >= 0):
                raise ValueError(f'bad index {nn!r}')
        return cls._new(flavor, coords)

    coords = LinComb.coeffs  # the coefficient slot, under its K-theory name

    def __repr__(self):
        sym = 'L' if self.flavor == G_SIMPLES else 'N'
        if not self.coords:
            return f'KVector({self.flavor!r}, 0)'
        body = render_terms((f'[{sym}_{nn}]', c) for nn, c in sorted(self.coords.items()))
        return f'KVector({self.flavor!r}, {body!r})'


def simple_class(n):
    """[L_n], the class of the one-dimensional simple of N_n."""
    return KVector(G_SIMPLES, {n: 1})


def projective_class(n):
    """[N_n], the class of the regular (free rank one) module."""
    return KVector(K_PROJECTIVES, {n: 1})


def _ind_multiplicity(flavor, n):
    # rank of N_{n+1} as a free right N_n-module, straight from the basis
    rank = len(x_right_basis(n))
    if flavor == G_SIMPLES:
        # Ind L_n has dimension rank * dim L_n; every composition factor is
        # the one simple L_{n+1}, of dimension 1
        return rank * 1
    dim_ind = rank * math.factorial(n)
    mult, rem = divmod(dim_ind, math.factorial(n + 1))
    if rem:
        raise ArithmeticError(f'dim Ind N_{n} = {dim_ind} is not a multiple of {n + 1}!')
    return mult


def _res_multiplicity(flavor, n):
    if flavor == G_SIMPLES:
        return 1  # dim L_n / dim L_{n-1}
    # N_n restricted to N_{n-1} is free; u_s -> u_{s^{-1}} turns the right
    # coset basis into a left one, so the rank is the same count
    return len(x_right_basis(n - 1))


def ind_K(v):
    """Class of induction to the next rank, computed from module dimensions."""
    out = {}
    for n, c in v.coords.items():
        out[n + 1] = out.get(n + 1, 0) + c * _ind_multiplicity(v.flavor, n)
    return KVector._new(v.flavor, out)


def res_K(v):
    """Class of restriction to the previous rank; rank 0 restricts to zero."""
    out = {}
    for n, c in v.coords.items():
        if n == 0:
            continue
        out[n - 1] = out.get(n - 1, 0) + c * _res_multiplicity(v.flavor, n)
    return KVector._new(v.flavor, out)


def k_pairing(a, b):
    """<[N_m], [L_n]> = delta, extended bilinearly.

    >>> k_pairing(projective_class(2), simple_class(2))
    1
    """
    if a.flavor != K_PROJECTIVES or b.flavor != G_SIMPLES:
        raise FlavorMismatch('pairing takes (projective-flavor, simple-flavor) arguments')
    return sum(c * b.coords.get(n, 0) for n, c in a.coords.items())


def regular_action_matrices(n):
    """Left-multiplication matrices of the generators u_i on the u_sigma basis.

    Basis order is all_perms(n); entry [r][c] is 1 when u_i times basis
    vector c is basis vector r, else 0.
    """
    basis = list(all_perms(n))
    images = [[_times(simple_transposition(i, n), s) for s in basis] for i in range(1, n)]
    return [[[int(t == r) for t in row] for r in basis] for row in images]


def simple_action_matrices(n):
    """Generator actions on the one-dimensional simple: every u_i acts by 0."""
    return [[[0]] for _ in range(1, n)]


def hom_space_dimension(acts_m, dim_m, acts_l, dim_l):
    """dim Hom(M, L) for modules given by generator action matrices.

    Solves F A_i = B_i F for an unknown dim_l x dim_m matrix F (int or Fraction
    entries); the answer is the nullity of the stacked system.
    """
    unknowns = dim_l * dim_m
    rows = []
    for a_mat, b_mat in zip(acts_m, acts_l):
        for r in range(dim_l):
            for c in range(dim_m):
                row = [0] * unknowns
                for k in range(dim_m):
                    row[r * dim_m + k] += a_mat[k][c]
                for k in range(dim_l):
                    row[k * dim_m + c] -= b_mat[r][k]
                rows.append(row)
    return unknowns - matrix_rank(rows)


def phi_G(v):
    """[L_n] -> r_n = x^n/n! in the divided-power lattice."""
    if v.flavor != G_SIMPLES:
        raise FlavorMismatch('phi_G takes the simple flavor')
    return PolyVector._new(DIVIDED_POWERS, v.coords)


def phi_K(v):
    """[N_n] -> x^n in the monomial lattice."""
    if v.flavor != K_PROJECTIVES:
        raise FlavorMismatch('phi_K takes the projective flavor')
    return PolyVector._new(MONOMIALS, v.coords)


def verify_weyl_squares(max_n=10):
    """The induction/restriction squares against x and d, plus the Weyl relation.

    On every basis class with index <= max_n, in both flavors:
      phi o ind = (x .) o phi,   phi o res = (d .) o phi,
      res o ind = ind o res + id,
      <ind a, b> = <a, res b>  (indices <= 8).
    """
    x_elt = WeylElement({(1, 0): 1})
    d_elt = WeylElement({(0, 1): 1})
    report = Report(n=max_n)
    for flavor, phi, label in ((G_SIMPLES, phi_G, 'simples'),
                               (K_PROJECTIVES, phi_K, 'projectives')):
        basis = [KVector(flavor, {n: 1}) for n in range(max_n + 1)]
        report.check(f'ind-square-{label}',
                     all(phi(ind_K(v)) == weyl_apply(x_elt, phi(v)) for v in basis),
                     f'phi o ind = x o phi on classes 0..{max_n}')
        report.check(f'res-square-{label}',
                     all(phi(res_K(v)) == weyl_apply(d_elt, phi(v)) for v in basis),
                     f'phi o res = d o phi on classes 0..{max_n}')
        report.check(f'weyl-relation-{label}',
                     all(res_K(ind_K(v)) == ind_K(res_K(v)) + v for v in basis),
                     f'res o ind = ind o res + id on classes 0..{max_n}')

    adj = all(k_pairing(ind_K(projective_class(m)), simple_class(n))
              == k_pairing(projective_class(m), res_K(simple_class(n)))
              for m in range(9) for n in range(9))
    report.check('ind-res-adjoint', adj, 'pairing adjunction on classes 0..8')
    return report.close('K-theory check {check!r} failed: {detail}'.format_map)


#################
# wire formats  #
#################

_NCTERM_RE = re.compile(r'^\s*(?P<coeff>-?\d+)?\s*u\[(?P<word>[\d,\s]*)\]\s*$')


def parse_nilcox(text, n):
    """Parse a literal like 'u[1,2] + 3 u[]' into N_n.

    The bracket holds a reduced word; a non-reduced word is rejected rather
    than silently evaluated.

    >>> parse_nilcox('u[1,2] + 3 u[]', 3) == (
    ...     NilcoxElem(3, {(2, 3, 1): 1}) + 3 * nc_unit(3))
    True
    """
    text = text.strip()
    if text == '0':
        return NilcoxElem(n, {})
    if not text:
        raise ParseError('empty nilcoxeter literal')
    out = {}
    for sgn, chunk in split_terms(text):
        mo = _NCTERM_RE.match(chunk)
        if not mo:
            raise ParseError(f'bad nilcoxeter term {chunk.strip()!r}')
        coeff = int(mo.group('coeff') or 1)
        body = mo.group('word').strip()
        word = tuple(int(p) for p in body.split(',')) if body else ()
        for i in word:
            if not 1 <= i <= n - 1:
                raise ParseError(f'generator index {i} out of range for N_{n}')
        if not is_reduced(word, n):
            raise ParseError(f'word {list(word)} is not reduced')
        sigma = word_eval(word, n)
        out[sigma] = out.get(sigma, 0) + sgn * coeff
    return NilcoxElem(n, out)


def render_nilcox(a):
    """Deterministic text form, shortest words first.

    >>> render_nilcox(nc_unit(2) - 2 * nc_generator(1, 2))
    'u[] - 2 u[1]'
    """
    items = sorted((_word_key(s), c) for s, c in a.coeffs.items())
    return render_terms(('u[' + ','.join(str(i) for i in word) + ']', c)
                        for (_, word), c in items)
