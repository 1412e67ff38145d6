"""The `verify-all` cases: one runner per module invariant, run by id.

A runner takes its bounds as keywords (a seeded one takes a generator `rng`
first), returns a one-line detail and raises VerificationFailure on the first
mismatch.  CASES maps each id to its bounds, derived from (--max-degree,
--max-rank), and its runner; `verify-all` prints the bounds as parameters.
"""

import functools
import itertools
import math
import random

from . import bimodel as bm
from . import combinatorics as cb
from . import diagcat as dg
from . import heisenberg as hs
from . import nilcoxeter as nc
from . import symfunc as sf
from . import weyl as wy
from .errors import UnrealizableAtRank, VerificationFailure


def _case_reduced_words(max_n):
    checked = 0
    for n in range(1, max_n + 1):
        for w in cb.all_perms(n):
            word = cb.reduced_word(w)
            if cb.word_eval(word, n) != w or len(word) != cb.perm_length(w):
                raise VerificationFailure(f'reduced word of {w} does not round-trip')
            checked += 1
    return f'{checked} permutations across S_1..S_{max_n} round-trip through reduced words'


def _brute_partitions(n, biggest):
    if n == 0:
        return {()}
    return {(first,) + rest for first in range(min(n, biggest), 0, -1)
            for rest in _brute_partitions(n - first, first)}


def _case_partition_count(max_n):
    counts = []
    for n in range(max_n + 1):
        parts = cb.partitions_of(n)
        if len(parts) != len(set(parts)) or set(parts) != _brute_partitions(n, n):
            raise VerificationFailure(f'partitions_of({n}) disagrees with direct enumeration')
        if any(sum(p) != n for p in parts):
            raise VerificationFailure(f'partitions_of({n}) contains a wrong-size entry')
        counts.append(len(parts))
    return f'p(0..{max_n}) = {counts}'


def _case_coset_bijection(max_n):
    for n in range(1, max_n + 1):
        seen = set()
        for w in cb.all_perms(n + 1):
            i, rest = cb.coset_decompose(w)
            if not 1 <= i <= n + 1 or len(rest) != n:
                raise VerificationFailure(f'coset_decompose({w}) lands out of range')
            if cb.perm_mult(cb.coset_rep(i, n + 1), cb.perm_extend(rest, n + 1)) != w:
                raise VerificationFailure(f'coset factors of {w} do not recompose')
            seen.add((i, rest))
        if len(seen) != math.factorial(n + 1):
            raise VerificationFailure(f'coset decomposition repeats a pair on S_{n + 1}')
    return f'S_2..S_{max_n + 1} factor uniquely as coset representative times subgroup element'


def _case_product_oracle(max_degree, nvars):
    # Both sides are symmetric polynomials: the expansion of the product, and
    # the product of two expansions.  A symmetric polynomial is fixed by its
    # coefficients at weakly decreasing exponents (its m-coefficients), so
    # comparing those, read off the factors' too, decides the whole product.
    elems = [(b, lam)
             for d in range(max_degree + 1)
             for lam in cb.partitions_of(d)
             for b in ('m', 'e', 'h', 's')]
    expanded = {key: sf.dominant_expand(sf.basis_element(*key), nvars)
                for key in elems}
    checked = 0
    for i, (b1, lam) in enumerate(elems):
        f = sf.basis_element(b1, lam)
        for b2, mu in elems[i:]:
            if sum(lam) + sum(mu) > max_degree:
                continue
            direct = sf.dominant_expand(sf.multiply(f, sf.basis_element(b2, mu)), nvars)
            if direct != sf.dominant_product(expanded[(b1, lam)], expanded[(b2, mu)],
                                             (sum(lam) + sum(mu),), nvars):
                raise VerificationFailure(
                    f'{b1}{list(lam)} * {b2}{list(mu)} disagrees with the polynomial product')
            checked += 1
    return f'{checked} products expand identically in {nvars} variables'


def _case_basis_round_trip(max_degree):
    checked = 0
    for d in range(max_degree + 1):
        for lam in cb.partitions_of(d):
            for b1 in ('m', 'e', 'h', 's'):
                f = sf.basis_element(b1, lam)
                for b2 in ('m', 'e', 'h', 's'):
                    if sf.convert(sf.convert(f, b2), b1) != f:
                        raise VerificationFailure(f'{b1}->{b2}->{b1} moves {b1}{list(lam)}')
                    checked += 1
    return f'{checked} conversions invert exactly up to degree {max_degree}'


def _case_hopf_pairing(max_degree):
    # <ab, h_nu> = <a (x) b, Delta h_nu> for every nu of one degree at once:
    # the right side sums (s_lam)_alpha (e_mu)_beta, read in m, through an
    # index of the terms h_alpha (x) h_beta of each Delta h_nu; the left pairs
    # s_lam e_mu in s with the h -> s rows, never the s -> m rows of the right.
    checked = 0
    for total in range(max_degree + 1):
        nus, cop, rows, sides = cb.partitions_of(total), {}, {}, {}
        for j, nu in enumerate(nus):
            for k, left, right in sf.coproduct(sf.basis_element('h', nu)):
                k = k.numerator if k.denominator == 1 else k  # summed in int when integral
                cop.setdefault((*left.coeffs, *right.coeffs), []).append((j, k))
            for kappa, k in sf.convert(sf.basis_element('h', nu), 's').coeffs.items():
                rows.setdefault(kappa, []).append((j, k))
        for da in range(total + 1):
            for lam, mu in itertools.product(cb.partitions_of(da), cb.partitions_of(total - da)):
                a, b = sf.basis_element('s', lam), sf.basis_element('e', mu)
                lhs, rhs = sides[lam, mu] = [0] * len(nus), [0] * len(nus)
                for kappa, x in sf.multiply(a, b).coeffs.items():
                    for j, k in rows.get(kappa, ()):
                        lhs[j] += x * k
                for (alpha, x), (beta, y) in itertools.product(
                        sf.convert(a, 'm').coeffs.items(), sf.convert(b, 'm').coeffs.items()):
                    for j, k in cop.get((alpha, beta), ()):
                        rhs[j] += x * y * k
        checked += len(nus) * len(sides)
        for j, nu in enumerate(nus):  # the first failing triple in the order (nu, lam, mu)
            for (lam, mu), (lhs, rhs) in sides.items():
                if lhs[j] != rhs[j]:
                    raise VerificationFailure(
                        f'<ab,c> != <a(x)b, Delta c> at ({list(lam)}, {list(mu)}, {list(nu)})')
    return f'{checked} triples satisfy the product/coproduct adjunction up to degree {max_degree}'


def _case_antipode_axiom(max_degree):
    checked = 0
    for d in range(max_degree + 1):
        for lam in cb.partitions_of(d):
            for basis in ('m', 'e', 'h', 's'):
                f = sf.basis_element(basis, lam)
                acc = sf.zero('m')
                for c, left, right in sf.coproduct(f):
                    acc = acc + c * sf.convert(sf.multiply(sf.antipode(left), right), 'm')
                if acc != sf.counit(f) * sf.one('m'):
                    raise VerificationFailure(f'antipode axiom fails on {basis}{list(lam)}')
                checked += 1
    return f'{checked} elements satisfy mult(S (x) id) Delta = unit counit'


def _case_schur_triangular(max_degree):
    for d in range(1, max_degree + 1):
        parts = cb.partitions_of(d)
        pos = {lam: i for i, lam in enumerate(parts)}
        for lam in parts:
            expansion = sf.convert(sf.basis_element('s', lam), 'm').coeffs
            if expansion.get(lam) != 1:
                raise VerificationFailure(f's{list(lam)} lacks a unit diagonal coefficient')
            for mu, coef in expansion.items():
                if coef <= 0 or pos[mu] < pos[lam] or not cb.dominates(lam, mu):
                    raise VerificationFailure(
                        f's{list(lam)} expansion breaks triangularity at m{list(mu)}')
    return f'Schur-to-monomial matrices are unitriangular with positive entries up to degree {max_degree}'


def _case_dual_apply(max_degree):
    checked = 0
    for df in range(max_degree + 1):
        for da in range(max_degree + 1 - df):
            for lam in cb.partitions_of(df):
                f = sf.basis_element('h', lam)
                for mu in cb.partitions_of(da):
                    a = sf.basis_element('s', mu)
                    for nu in cb.partitions_of(df + da):
                        b = sf.basis_element('s', nu)
                        if sf.hall_pairing(a, sf.dual_apply(f, b)) != \
                                sf.hall_pairing(sf.multiply(f, a), b):
                            raise VerificationFailure(
                                f'lowering adjunction fails at ({list(lam)}, {list(mu)}, {list(nu)})')
                        checked += 1
    return f'{checked} triples satisfy <a, f*b> = <fa, b>'


def _case_weyl_action(rng, samples, max_degree):
    for _ in range(samples):
        u, v = (wy.WeylElement({(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
                                for _ in range(2)}) for _ in range(2))
        uv = wy.weyl_multiply(u, v)
        for lattice in (wy.MONOMIALS, wy.DIVIDED_POWERS):
            for n in range(max_degree + 1):
                e_n = wy.PolyVector(lattice, {n: 1})
                if wy.weyl_apply(uv, e_n) != wy.weyl_apply(u, wy.weyl_apply(v, e_n)):
                    raise VerificationFailure(
                        'a normal-ordered product acts differently from the composition')
    return f'{samples} random products act as operator composition on both lattices'


def _case_weyl_adjoint(max_degree):
    x = wy.WeylElement({(1, 0): 1})
    d = wy.WeylElement({(0, 1): 1})
    for n in range(max_degree + 1):
        for m in range(max_degree + 1):
            v = wy.PolyVector(wy.MONOMIALS, {n: 1})
            w = wy.PolyVector(wy.DIVIDED_POWERS, {m: 1})
            if wy.weyl_pairing(wy.weyl_apply(x, v), w) != \
                    wy.weyl_pairing(v, wy.weyl_apply(d, w)):
                raise VerificationFailure(f'<x v, w> != <v, d w> at degrees ({n}, {m})')
            if wy.weyl_pairing(wy.weyl_apply(d, v), w) != \
                    wy.weyl_pairing(v, wy.weyl_apply(x, w)):
                raise VerificationFailure(f'<d v, w> != <v, x w> at degrees ({n}, {m})')
    return f'x and d are mutually adjoint for the lattice pairing on degrees <= {max_degree}'


def _case_weyl_integrality(rng, samples):
    for _ in range(samples):
        u = wy.WeylElement({(rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-5, 5)
                            for _ in range(3)})
        for lattice in (wy.MONOMIALS, wy.DIVIDED_POWERS):
            v = wy.PolyVector(lattice, {rng.randint(0, 9): rng.randint(-4, 4)
                                        for _ in range(3)})
            if not all(isinstance(c, int) for c in wy.weyl_apply(u, v).coeffs.values()):
                raise VerificationFailure('an application produced a non-integer coordinate')
    return f'{samples} random applications stay integral on both lattices'


def _case_nc_relations(max_n):
    checked = 0
    for n in range(2, max_n + 1):
        zero = nc.NilcoxElem(n, {})
        for i in range(1, n):
            g = nc.nc_generator(i, n)
            if nc.nc_product(g, g) != zero:
                raise VerificationFailure(f'u_{i} squared is nonzero in N_{n}')
            checked += 1
        for i in range(1, n - 1):
            if nc.nc_word_eval((i, i + 1, i), n) != nc.nc_word_eval((i + 1, i, i + 1), n):
                raise VerificationFailure(f'braid relation fails at u_{i} in N_{n}')
            checked += 1
        for i in range(1, n):
            for j in range(i + 2, n):
                if nc.nc_word_eval((i, j), n) != nc.nc_word_eval((j, i), n):
                    raise VerificationFailure(f'u_{i} and u_{j} do not commute in N_{n}')
                checked += 1
    return f'{checked} defining relations hold in N_2..N_{max_n}'


def _case_nc_squares(max_n):
    report = [e for e in nc.verify_weyl_squares(max_n=max_n) if 'square' in e['check']]
    return f'{len(report)} induction/restriction squares commute with the class maps up to rank {max_n}'


def _case_nc_weyl_relation(max_n):
    nc.verify_weyl_squares(max_n=max_n)
    return f'res o ind = ind o res + id on simple and projective classes up to rank {max_n}'


def _case_nc_adjoint(max_n):
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            lhs = nc.k_pairing(nc.ind_K(nc.projective_class(m)), nc.simple_class(n))
            rhs = nc.k_pairing(nc.projective_class(m), nc.res_K(nc.simple_class(n)))
            if lhs != rhs:
                raise VerificationFailure(f'<ind N_{m}, L_{n}> != <N_{m}, res L_{n}>')
    return f'induction and restriction are adjoint under the class pairing for ranks <= {max_n}'


def _case_nc_bimodule_iso(max_n):
    total = sum(len(nc.verify_bimodule_iso(n)) for n in range(1, max_n + 1))
    return f'{total} direct-sum decomposition checks pass for ranks 1..{max_n}'


def _case_heis_confluence(rng, samples, max_len, max_index):
    for _ in range(samples):
        letters = [('e' if rng.random() < 0.5 else 'h*', rng.randint(1, max_index))
                   for _ in range(rng.randint(0, max_len))]
        shuffled = list(letters)
        for _ in range(10 if len(shuffled) > 1 else 0):
            p = rng.randint(0, len(shuffled) - 2)
            if shuffled[p][0] == shuffled[p + 1][0]:
                shuffled[p], shuffled[p + 1] = shuffled[p + 1], shuffled[p]
        word = hs.HeisWord(letters)
        normal = hs.heis_normalize(word)
        if normal != hs.heis_normalize_single_step(word):
            raise VerificationFailure(
                f'closed-form normal form differs from single-step rewriting for {letters}')
        if normal != hs.heis_normalize(hs.HeisWord(shuffled)):
            raise VerificationFailure(
                f'normal form depends on the order of commuting letters in {letters}')
    return f'{samples} random words normalize independently of commuting-letter order'


_weight = hash  # w_nu: CPython's hash of an int tuple does not depend on PYTHONHASHSEED


def _case_heis_faithful(max_bidegree, max_state):
    small = [lam for d in range(max_bidegree + 1) for lam in cb.partitions_of(d)]
    states = [lam for d in range(max_state + 1) for lam in cb.partitions_of(d)]
    inputs = [sf.basis_element('s', lam) for lam in states]
    # e_lam h_mu* s_nu = e_lam (h_mu* s_nu): lower each state once per mu, raise
    # each once per lam (h_()* lowers none, so all are reached)
    lowered = {mu: [hs.fock_apply_schur(hs.heis_hstar(mu), f).coeffs for f in inputs] for mu in small}
    raised = {lam: {kappa: hs.fock_apply_schur(e_lam, f) for kappa, f in zip(states, inputs)}
              for lam, e_lam in zip(small, map(hs.heis_e, small))}

    @functools.cache
    def images(lam, mu):  # e_lam h_mu* on each state
        return [sum((c * raised[lam][kappa] for kappa, c in state.items()), sf.zero('s'))
                for state in lowered[mu]]

    # The key of e_lam h_mu* lists sum_nu f_nu w_nu over the images f of the
    # states.  It is linear in f, so equal operators have equal keys: distinct
    # keys prove two operators distinct, and only operators with one key are
    # compared by their images.  The verdict is exact for any weights.
    seen = {}
    for lam in small:
        w = {kappa: sum(k * _weight(nu) for nu, k in image.coeffs.items())
             for kappa, image in raised[lam].items()}
        for mu in small:
            key = tuple(sum(c * w[kappa] for kappa, c in state.items()) for state in lowered[mu])
            for pair in seen.setdefault(key, []):
                if images(*pair) == images(lam, mu):
                    raise VerificationFailure(
                        f'basis operators {pair} and {(lam, mu)} act identically')
            seen[key].append((lam, mu))
    return (f'{len(small) ** 2} basis operators of bidegree <= ({max_bidegree},{max_bidegree}) '
            f'are separated by states of size <= {max_state}')


def _case_heis_intertwine(max_degree, max_n):
    checked = 0
    for n in range(1, max_n + 1):
        for d in range(max(0, max_degree + 1 - n)):
            for lam in cb.partitions_of(d):
                got = hs.fock_apply_schur(hs.heis_e((n,)), hs.specht_to_sym(lam))
                want = bm.induced_character_decomposition((1,) * n, lam, bound=max_degree)
                if got.coeffs != want:
                    raise VerificationFailure(
                        f'e_{n} acting on the class of {list(lam)} disagrees with the coefficient oracle')
                checked += 1
    return f'{checked} raising actions match the coefficient oracle up to degree {max_degree}'


def _case_heis_specht_pairing(max_degree):
    checked = 0
    for d in range(max_degree + 1):
        parts = cb.partitions_of(d)
        for lam in parts:
            for mu in parts:
                want = 1 if lam == mu else 0
                if sf.hall_pairing(hs.specht_to_sym(lam), hs.specht_to_sym(mu)) != want:
                    raise VerificationFailure(f'classes of {list(lam)} and {list(mu)} pair to the wrong value')
                checked += 1
    return f'{checked} class pairings are orthonormal up to degree {max_degree}'


def _case_bm_local_relations(max_level):
    entries = bm.verify_local_relations(bm.LOCAL_RELATIONS, max_level)
    return f'{len(entries)} matrix identities across the four relation families at levels <= {max_level}'


def _case_bm_mackey(max_k):
    total = sum(len(bm.mackey_check(k)) for k in range(1, max_k + 1))
    return f'{total} decomposition checks for the two-sided restriction of an induction, k <= {max_k}'


def _case_bm_characters(max_size):
    checked = 0
    for total in range(max_size + 1):
        for da in range(total + 1):
            for lam in cb.partitions_of(da):
                for mu in cb.partitions_of(total - da):
                    got = bm.induced_character_decomposition(lam, mu, bound=max_size)
                    want = {k: v for k, v in sf.lr_coefficients(lam, mu).items() if v}
                    if got != want:
                        raise VerificationFailure(
                            f'character decomposition of ({list(lam)}, {list(mu)}) '
                            f'disagrees with the coefficient oracle')
                    checked += 1
    return f'{checked} induced-module decompositions match the coefficient oracle, sizes <= {max_size}'


def _case_bm_idempotents(max_n):
    for n in range(2, max_n + 1):
        e, ep = bm.symmetrizer(n), bm.antisymmetrizer(n)
        zero = bm.GroupAlgElem(n, {})
        if bm.ga_product(e, e) != e or bm.ga_product(ep, ep) != ep:
            raise VerificationFailure(f'an averaging element fails to square to itself at rank {n}')
        if bm.ga_product(e, ep) != zero or bm.ga_product(ep, e) != zero:
            raise VerificationFailure(f'the two averages are not orthogonal at rank {n}')
    return f"e(n) and e'(n) are orthogonal idempotents for 2 <= n <= {max_n}"


def _case_bm_rank_one(max_n):
    for n in range(1, max_n + 1):
        for elem, name in ((bm.symmetrizer(n), 'e'), (bm.antisymmetrizer(n), "e'")):
            # n! times the average has integer entries and the same rank
            if bm.matrix_rank(bm.right_mult_matrix(math.factorial(n) * elem)) != 1:
                raise VerificationFailure(f'right multiplication by {name}({n}) is not rank one')
    return f'right multiplication by either average has rank 1 for n <= {max_n}'


def random_diagram(rng, max_sig=2, max_slices=5):
    """A random diagram: a signature of at most max_sig letters, at most max_slices slices."""
    sig = ''.join(rng.choice('UD') for _ in range(rng.randint(0, max_sig)))
    d = dg.Diagram(sig, ())
    for _ in range(rng.randint(0, max_slices)):
        cur = d.codomain
        options = [('x', i) for i in range(1, len(cur))]
        options += [(c, i) for i in range(1, len(cur) + 2) for c in ('cup+', 'cup-')]
        options += [('cap+', i) for i in range(1, len(cur)) if cur[i - 1:i + 1] == 'DU']
        options += [('cap-', i) for i in range(1, len(cur)) if cur[i - 1:i + 1] == 'UD']
        if not options:
            break
        d = dg.Diagram(sig, d.slices + (rng.choice(options),))
    return d


def _case_dg_idempotent(rng, samples):
    for _ in range(samples):
        once = dg.simplify(dg.Morphism.from_diagram(random_diagram(rng)))
        if dg.simplify(once) != once:
            raise VerificationFailure('simplification is not idempotent on a random diagram')
    return f'simplify reached a fixed point on {samples} random diagrams'


def _case_dg_soundness(rng, samples, max_base):
    compared = 0
    for _ in range(samples):
        m = dg.Morphism.from_diagram(random_diagram(rng))
        s = dg.simplify(m)
        for base in range(max_base + 1):
            try:
                want = bm.diagram_to_map(m, base)
            except UnrealizableAtRank:
                continue
            try:
                got = bm.diagram_to_map(s, base)
            except UnrealizableAtRank:
                # the removed slices were the ones forcing the zero module
                if not want.is_zero():
                    raise VerificationFailure(
                        'simplification dropped a diagram with a nonzero matrix')
                compared += 1
                continue
            if got != want:
                raise VerificationFailure(
                    f'simplification changed a matrix at base rank {base}')
            compared += 1
    return f'{compared} matrix comparisons agree across {samples} random diagrams'


def _case_dg_sym_homomorphism(rng, samples, rank):
    perms = list(cb.all_perms(rank))
    for _ in range(samples):
        u, v = rng.choice(perms), rng.choice(perms)
        stacked = dg.compose(dg.section(u), dg.section(v))
        if dg.sym_image(stacked) != bm.ga_perm(cb.perm_mult(u, v)):
            raise VerificationFailure(f'stacked crossing words of {u} and {v} map to the wrong product')
    return f'{samples} random stacked crossing words in S_{rank} map to group products'


def _case_dg_section_idempotents(max_n):
    for n in range(1, max_n + 1):
        e_img = dg.sym_image(dg.section_of_elem(bm.symmetrizer(n)))
        ep_img = dg.sym_image(dg.section_of_elem(bm.antisymmetrizer(n)))
        if bm.ga_product(e_img, e_img) != e_img or bm.ga_product(ep_img, ep_img) != ep_img:
            raise VerificationFailure(f'a section image fails idempotence at rank {n}')
        if n >= 2:
            zero = bm.GroupAlgElem(n, {})
            if bm.ga_product(e_img, ep_img) != zero or bm.ga_product(ep_img, e_img) != zero:
                raise VerificationFailure(f'section images fail orthogonality at rank {n}')
    return f'section images of both averages are idempotent (and orthogonal from rank 2) for n <= {max_n}'


def _case_dg_k0(max_m, max_n):
    total = sum(len(dg.verify_k0_relations(m, n))
                for m in range(1, max_m + 1) for n in range(1, max_n + 1))
    ranges = f'm, n <= {max_n}' if max_m == max_n else f'm <= {max_m}, 1 <= n <= {max_n}'
    return f'{total} class-level relations hold for 1 <= {ranges}'



CASES = {
    'combinatorics/reduced-word-round-trip': (lambda D, N: {'max_n': 6}, _case_reduced_words),
    'combinatorics/partition-count': (lambda D, N: {'max_n': 8}, _case_partition_count),
    'combinatorics/coset-decompose-bijection': (lambda D, N: {'max_n': 5}, _case_coset_bijection),
    'symfunc/product-oracle':
        (lambda D, N: {'max_degree': min(5, D), 'nvars': 10}, _case_product_oracle),
    'symfunc/basis-round-trip': (lambda D, N: {'max_degree': D}, _case_basis_round_trip),
    'symfunc/pairing-hopf-duality': (lambda D, N: {'max_degree': D}, _case_hopf_pairing),
    'symfunc/antipode-axiom': (lambda D, N: {'max_degree': min(5, D)}, _case_antipode_axiom),
    'symfunc/schur-unitriangular': (lambda D, N: {'max_degree': D}, _case_schur_triangular),
    'symfunc/dual-apply-adjoint': (lambda D, N: {'max_degree': min(5, D)}, _case_dual_apply),
    'weyl/normal-order-action': (lambda D, N: {'samples': 25, 'max_degree': 12}, _case_weyl_action),
    'weyl/pairing-adjoint': (lambda D, N: {'max_degree': 10}, _case_weyl_adjoint),
    'weyl/integrality': (lambda D, N: {'samples': 20}, _case_weyl_integrality),
    'nilcoxeter/defining-relations': (lambda D, N: {'max_n': 6}, _case_nc_relations),
    'nilcoxeter/weyl-squares': (lambda D, N: {'max_n': 10}, _case_nc_squares),
    'nilcoxeter/categorified-weyl-relation': (lambda D, N: {'max_n': 10}, _case_nc_weyl_relation),
    'nilcoxeter/k-adjointness': (lambda D, N: {'max_n': 8}, _case_nc_adjoint),
    'nilcoxeter/bimodule-iso': (lambda D, N: {'max_n': 5}, _case_nc_bimodule_iso),
    'heisenberg/normalize-confluence':
        (lambda D, N: {'samples': 40, 'max_len': 6, 'max_index': 4}, _case_heis_confluence),
    'heisenberg/fock-faithful-spot':
        (lambda D, N: {'max_bidegree': 4, 'max_state': 8}, _case_heis_faithful),
    'heisenberg/fock-intertwines-induction':
        (lambda D, N: {'max_degree': D, 'max_n': 3}, _case_heis_intertwine),
    'heisenberg/specht-pairing-orthonormal':
        (lambda D, N: {'max_degree': D}, _case_heis_specht_pairing),
    'bimodel/local-relations': (lambda D, N: {'max_level': N}, _case_bm_local_relations),
    'bimodel/mackey-decomposition': (lambda D, N: {'max_k': 4}, _case_bm_mackey),
    'bimodel/character-vs-lr': (lambda D, N: {'max_size': min(D, 6)}, _case_bm_characters),
    'bimodel/idempotents-orthogonal': (lambda D, N: {'max_n': 5}, _case_bm_idempotents),
    'bimodel/idempotent-rank-one': (lambda D, N: {'max_n': 5}, _case_bm_rank_one),
    'diagcat/simplify-idempotent': (lambda D, N: {'samples': 60}, _case_dg_idempotent),
    'diagcat/simplify-soundness': (lambda D, N: {'samples': 40, 'max_base': 2}, _case_dg_soundness),
    'diagcat/sym-image-homomorphism':
        (lambda D, N: {'samples': 30, 'rank': 4}, _case_dg_sym_homomorphism),
    'diagcat/section-idempotents': (lambda D, N: {'max_n': 4}, _case_dg_section_idempotents),
    'diagcat/k0-relations': (lambda D, N: {'max_m': 4, 'max_n': 4}, _case_dg_k0),
}


def seeded(case_id):
    """Whether the case's runner draws from a generator (takes `rng` first)."""
    return CASES[case_id][1].__code__.co_varnames[0] == 'rng'


def run_case(case_id, seed=0, **bounds):
    """Run the case `module/name` at `bounds` and return its detail line; a
    seeded case draws from random.Random(f'{seed}:{case_id}')."""
    run = CASES[case_id][1]
    if seeded(case_id):
        return run(random.Random(f'{seed}:{case_id}'), **bounds)
    return run(**bounds)
