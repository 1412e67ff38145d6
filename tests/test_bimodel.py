"""Tests for group algebras, composite bimodules, and the diagram functor."""

import hashlib
import itertools
import math
import random
import tracemalloc

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import symcat.bimodel as bm
import symcat.combinatorics as cb
import symcat.diagcat as dg
import symcat.heisenberg as hs
import symcat.nilcoxeter as nx
from symcat.combinatorics import (
    all_perms,
    coset_rep,
    partitions_of,
    perm_extend,
    perm_mult,
    transposition,
)
from symcat.diagcat import Morphism, parse_diagram
from symcat.errors import (
    BoundExceeded,
    RankMismatch,
    UnrealizableAtRank,
    VerificationFailure,
)

from conftest import compose_by_definition, fresh_walk, patch_table


def mor(text):
    return Morphism.from_diagram(parse_diagram(text))


def test_ga_product_basics():
    s1 = bm.ga_perm((2, 1, 3))
    assert bm.ga_product(s1, s1) == bm.ga_unit(3)
    a = bm.GroupAlgElem(2, {(1, 2): 1, (2, 1): 2})
    b = bm.GroupAlgElem(2, {(2, 1): Fraction(1, 2)})
    assert bm.ga_product(a, b) == bm.GroupAlgElem(
        2, {(2, 1): Fraction(1, 2), (1, 2): 1})
    with pytest.raises(RankMismatch):
        bm.ga_product(bm.ga_unit(2), bm.ga_unit(3))


def test_ga_rejects_bad_permutation():
    with pytest.raises(ValueError):
        bm.GroupAlgElem(2, {(1, 1): 1})


def test_idempotents():
    for n in range(2, 6):
        e, ep = bm.symmetrizer(n), bm.antisymmetrizer(n)
        assert bm.ga_product(e, e) == e
        assert bm.ga_product(ep, ep) == ep
        assert bm.ga_product(e, ep).is_zero()
        assert bm.ga_product(ep, e).is_zero()


def test_symmetrizer_rank_one():
    # the trivial and sign isotypic components are one-dimensional
    for n in range(2, 6):
        assert bm.matrix_rank(bm.right_mult_matrix(bm.symmetrizer(n))) == 1
        assert bm.matrix_rank(bm.right_mult_matrix(bm.antisymmetrizer(n))) == 1


def test_render_groupalg():
    a = bm.GroupAlgElem(2, {(1, 2): -1, (2, 1): Fraction(3, 2)})
    assert bm.render_groupalg(a) == '-(1,2) + 3/2 (2,1)'
    assert bm.render_groupalg(bm.GroupAlgElem(2, {})) == '0'


def test_path_from_signature():
    assert bm.path_from_signature('DU', 2).levels == (2, 3, 2)
    assert bm.path_from_signature('UD', 2).levels == (2, 1, 2)
    assert bm.path_from_signature('', 4).levels == (4,)
    for _ in range(2):  # a raised error is not memoised
        with pytest.raises(UnrealizableAtRank):
            bm.path_from_signature('UDD', 1)
        with pytest.raises(ValueError, match="bad signature symbol 'X'"):
            bm.path_from_signature('UXD', 1)
    with pytest.raises(ValueError):
        bm.BimodulePath((2, 4))


def test_tensor_basis_sizes():
    # one up-step from n is A_{n+1} itself
    for n in range(0, 4):
        assert len(bm.tensor_basis(bm.path_from_signature('U', n))) == \
            math.factorial(n + 1)
    # Res Ind has size (k+1)!; Ind Res has size k.k!
    for k in range(1, 5):
        assert len(bm.tensor_basis(bm.path_from_signature('DU', k))) == \
            math.factorial(k + 1)
        assert len(bm.tensor_basis(bm.path_from_signature('UD', k))) == \
            k * math.factorial(k)


def test_canonicalize_balanced_moves():
    # moving a subalgebra element across the tensor does not change the class
    k = 3
    path = bm.path_from_signature('UD', k)
    rng = random.Random(5)
    s_k = list(all_perms(k))
    s_km1 = list(all_perms(k - 1))
    for _ in range(40):
        a = coset_rep(rng.randint(1, k), k)
        d = rng.choice(s_km1)
        b, w = rng.choice(s_k), rng.choice(s_k)
        lhs = bm.canonicalize(path, (perm_mult(a, perm_extend(d, k)), b, w))
        mid = bm.canonicalize(path, (a, perm_mult(perm_extend(d, k), b), w))
        assert lhs == mid
        # and pushing the down slot into the free factor
        g = rng.choice(s_k)
        assert bm.canonicalize(path, (a, perm_mult(b, g), w)) == \
            bm.canonicalize(path, (a, b, perm_mult(g, w)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_canonicalize_idempotent(seed):
    rng = random.Random(seed)
    sig = ''.join(rng.choice('UD') for _ in range(rng.randint(0, 3)))
    base = rng.randint(0, 3)
    try:
        path = bm.path_from_signature(sig, base)
    except UnrealizableAtRank:
        return
    slots = [rng.choice(list(all_perms(m))) for _up, m in path.layout]
    w = rng.choice(list(all_perms(path.base)))
    elem = tuple(slots) + (w,)
    once = bm.canonicalize(path, elem)
    assert bm.canonicalize(path, once) == once
    assert once in set(bm.tensor_basis(path))


def test_bimodule_elem_merges_balanced_representatives():
    path = bm.path_from_signature('UD', 3)
    a = coset_rep(1, 3)
    d = perm_extend((2, 1), 3)
    w = (1, 2, 3)
    elem1 = (perm_mult(a, d), (1, 2, 3), w)
    elem2 = (a, d, w)
    assert elem1 != elem2
    v = bm.BimoduleElem(path, {elem1: 1, elem2: -1})
    assert v.is_zero()


def test_diagram_to_map_identity_and_shape():
    rep = bm.diagram_to_map(mor('sig:U'), 2)
    assert rep.is_identity()
    assert len(rep.matrix) == 6
    rep = bm.diagram_to_map(mor('sig:; cup+1; cap+1'), 3)
    assert rep.is_identity()
    for n in range(0, 3):
        rep = bm.diagram_to_map(mor('sig:U; cup+1; x2; cap+1'), n)
        assert rep.is_zero()


def test_diagram_to_map_ud_crossing_frozen():
    # base 1: A_1 (x) A_1 -> A_2 sends the single basis vector to t = (2,1),
    # whose canonical coordinates pick out the first DU basis element
    rep = bm.diagram_to_map(mor('sig:UD; x1'), 1)
    assert rep.matrix == ((Fraction(1), Fraction(0)),)


def test_diagram_to_map_needs_realizable_ranks():
    with pytest.raises(UnrealizableAtRank):
        bm.diagram_to_map(mor('sig:UD; x1'), 0)
    # realizable boundary, unrealizable intermediate
    with pytest.raises(UnrealizableAtRank):
        bm.diagram_to_map(mor('sig:DU; x1; x1'), 0)


def test_adjunction_zigzags():
    zigzags = ['sig:U; cup+2; cap-1', 'sig:D; cup+1; cap-2',
               'sig:D; cup-2; cap+1', 'sig:U; cup-1; cap+2']
    for text in zigzags:
        for base in range(0, 4):
            try:
                rep = bm.diagram_to_map(mor(text), base)
            except UnrealizableAtRank:
                assert base == 0 and text[4] == 'D'
                continue
            assert rep.is_identity(), (text, base)


def test_dd_double_crossing_is_identity_in_bimodel():
    for base in range(2, 5):
        assert bm.diagram_to_map(mor('sig:DD; x1; x1'), base).is_identity()


def test_cw_circle_counts_cosets():
    # the clockwise circle acts on A_k by the rank k, so it has no
    # rank-independent scalar value; at rank 0 it is not even realizable
    with pytest.raises(UnrealizableAtRank):
        bm.diagram_to_map(mor('sig:; cup-1; cap-1'), 0)
    for k in range(1, 4):
        rep = bm.diagram_to_map(mor('sig:; cup-1; cap-1'), k)
        want = [[Fraction(k) if r == c else Fraction(0)
                 for c in range(math.factorial(k))]
                for r in range(math.factorial(k))]
        assert rep.matrix == tuple(tuple(row) for row in want)


def test_verify_local_relation_families():
    for rel in bm.LOCAL_RELATIONS:
        for n in range(0, 3):
            report = bm.verify_local_relation(rel, n)
            assert all(entry['pass'] for entry in report)
    with pytest.raises(BoundExceeded):
        bm.verify_local_relation('braid', 4)
    with pytest.raises(ValueError):
        bm.verify_local_relation('bogus', 1)


def test_braid_relation_memory_peak():
    # the 720 x 720 braid maps at level 3 are held as one sparse image per
    # basis tensor, not as dense grids (about 12 MB of tuples)
    tracemalloc.start()
    try:
        report = bm.verify_local_relation('braid', 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(entry['pass'] for entry in report)
    assert peak < 4_000_000, peak


def test_linear_map_rep_images_are_the_matrix_rows():
    for text, base in (('sig:UU; x1', 2), ('sig:DU; x1; x1', 2), ('sig:; cup-1; cap-1', 3),
                       ('sig:U; cup+1; x2; cap+1', 1)):
        for m in (mor(text), Fraction(1, 2) * mor(text)):
            rep = bm.diagram_to_map(m, base)
            cod = bm.tensor_basis(rep.codomain)
            assert len(rep.images) == len(bm.tensor_basis(rep.domain))
            for image, row in zip(rep.images, rep.matrix):
                assert isinstance(image, bm.BimoduleElem) and image.path == rep.codomain
                assert image.coeffs == {e: x for e, x in zip(cod, row) if x}
            assert bm.LinearMapRep(rep.domain, rep.codomain, rep.matrix) == rep


def test_mackey_ceiling():
    assert bm.MAX_K == 5
    with pytest.raises(BoundExceeded, match='exceeds 5'):
        bm.mackey_check(bm.MAX_K + 1)


def test_local_relation_level_ceiling():
    # a caller's larger max_level does not lift the fixed ceiling
    assert bm.MAX_LEVEL == 4
    with pytest.raises(BoundExceeded, match='outside 0..4'):
        bm.verify_local_relation('up-double', bm.MAX_LEVEL + 1, max_level=9)
    from symcat import cases
    with pytest.raises(BoundExceeded):
        cases.run_case('bimodel/local-relations', max_level=bm.MAX_LEVEL + 1)


def test_mackey_check():
    for k in range(1, 5):
        report = bm.mackey_check(k)
        assert all(entry['pass'] for entry in report)
        assert {e['check'] for e in report} >= {
            'dimension', 'm1-injective', 'm2-injective', 'images-disjoint',
            'images-span', 'm1-image-criterion', 'm2-well-defined'}
    with pytest.raises(ValueError):
        bm.mackey_check(0)


def test_mackey_check_past_the_ceiling(monkeypatch):
    # the ceiling guards the CLI, not the cost: k = 6 passes in well under a second
    monkeypatch.setattr(bm, 'MAX_K', 6)
    report = bm.mackey_check(6)
    assert len(report) == 11 and all(entry['pass'] for entry in report)


def test_coset_split_reports_match_the_pinned_digests(monkeypatch):
    # every entry of both checks at ranks 1..6, ceilings lifted, against the
    # reports of the two separate implementations that `coset_split` replaced
    monkeypatch.setattr(bm, 'MAX_K', 6)
    monkeypatch.setattr(nx, 'MAX_RANK', 6)
    digests = {
        bm.mackey_check: 'bf5dbdd91fc5b8ba05a65a42f814aaae556ed899b74ae06f101105be482a701e',
        nx.verify_bimodule_iso: 'ffa4a7feaefdceeeccca02c3273d2cfe7d82a78c09ea6fc8d3a9fa77875daedd',
    }
    for check, digest in digests.items():
        text = repr([check(k) for k in range(1, 7)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


MACKEY_LINEARITY = ('m1-left-linear', 'm1-right-linear', 'm2-left-linear', 'm2-right-linear')


def naive_mackey_linearity(k):
    """Oracle: the four linearity flags of mackey_check, one comparison per
    (c, basis element) at a time, composing by the definition."""
    mult = compose_by_definition
    t = transposition(k, k + 1, k + 1)
    sk = list(all_perms(k))
    ext = {v: bm.perm_extend(v, k + 1) for v in sk}
    indres = bm.path_from_signature('UD', k)
    basis = bm.tensor_basis(indres)
    m2 = {elem: mult(mult(ext[elem[0]], t), ext[elem[2]]) for elem in basis}
    ok = dict.fromkeys(MACKEY_LINEARITY, True)
    for c in sk:
        ce = ext[c]
        for v in sk:
            if ext[mult(c, v)] != mult(ce, ext[v]):
                ok['m1-left-linear'] = False
            if ext[mult(v, c)] != mult(ext[v], ce):
                ok['m1-right-linear'] = False
        for elem in basis:
            a, e, b = elem
            if m2[bm.canonicalize(indres, (mult(c, a), e, b))] != mult(ce, m2[elem]):
                ok['m2-left-linear'] = False
            if m2[bm.canonicalize(indres, (a, e, mult(b, c)))] != mult(m2[elem], ce):
                ok['m2-right-linear'] = False
    return ok


def _linearity_flags(k):
    try:
        report = bm.mackey_check(k)
    except VerificationFailure as exc:
        report = exc.report
    flags = {e['check']: e['pass'] for e in report}
    return {check: flags[check] for check in MACKEY_LINEARITY}


def test_mackey_linearity_matches_the_per_element_loop():
    # up to the top rank of the CLI
    for k in range(1, bm.MAX_K + 1):
        assert _linearity_flags(k) == naive_mackey_linearity(k)


# Each fault below is made twice: in a kernel that naive_mackey_linearity reads,
# and at the equivalent entries of the table of S_4 that mackey_check reads.

def _swapped_extension(true_extend):
    # the images of s_1 and s_2 in S_4 trade places.  (A swap of the identity's
    # and s_1's is left multiplication by s_1 on {1, s_1}: m2 = a t m1(b) stays
    # left linear, while the loop, which extends a and c as well, sees it.)
    swap = {(2, 1, 3): (1, 3, 2), (1, 3, 2): (2, 1, 3)}
    return lambda w, n: true_extend(swap.get(tuple(w), w) if n == 4 else w, n)


def _reversed_free_factor(true_canonicalize):
    # the first basis tensor at k = 3 gets the reversed permutation in its free factor
    target = bm.tensor_basis(bm.path_from_signature('UD', 3))[0]

    def corrupted(path, elem):
        out = true_canonicalize(path, elem)
        return out[:-1] + (tuple(reversed(out[-1])),) if out == target else out
    return corrupted


def _table_faults():
    rank = cb.perm_table(4).rank
    image = rank[(2, 3, 4, 1)]  # m2 of the first basis tensor, s_1 s_2 s_3
    products = {(j, image): image for j in (1, 2)}
    return {
        # the ranks of the extensions of s_1 and s_2 trade places
        'perm_extend': {'rank': {(2, 1, 3, 4): rank[(1, 3, 2, 4)],
                                 (1, 3, 2, 4): rank[(2, 1, 3, 4)]}},
        # the first basis tensor's image times s_1 or s_2, on either side, is itself:
        # as with its reversed free factor, both m2 sides read it wrong
        'canonicalize': {'left': products, 'right': products},
    }


@pytest.mark.parametrize('attr, corrupt', [('perm_extend', _swapped_extension),
                                           ('canonicalize', _reversed_free_factor)])
def test_mackey_linearity_matches_the_per_element_loop_on_a_fault(
        fresh_memos, monkeypatch, attr, corrupt):
    monkeypatch.setattr(bm, attr, corrupt(getattr(bm, attr)))
    patch_table(monkeypatch, cb, 4, **_table_faults()[attr])
    flags = _linearity_flags(3)
    assert flags == naive_mackey_linearity(3)
    assert not all(flags.values())


@pytest.mark.parametrize('i', [1, 2, 3])
def test_mackey_linearity_checks_every_generator(fresh_memos, monkeypatch, i):
    # a canonical form corrupted only on the left products s_i a that no other
    # generator reaches, and in mackey_check the slides of those s_i a: skipping
    # s_i would hide the fault
    k = 4
    true_canonicalize = bm.canonicalize
    firsts = {a for a, _e, _b in bm.tensor_basis(bm.path_from_signature('UD', k))}
    reach = {j: {compose_by_definition(transposition(j, j + 1, k), a) for a in firsts}
             for j in range(1, k)}
    only = reach.pop(i) - firsts - set().union(*reach.values())

    def corrupted(path, elem):
        out = true_canonicalize(path, elem)
        return out[:-1] + (tuple(reversed(out[-1])),) if elem[0] in only else out

    monkeypatch.setattr(bm, 'canonicalize', corrupted)
    # each s_i a of `only` is no coset representative, so its slide has rho != 1
    slides = {(i, c): (i2, ()) for (j, c), (i2, _rho) in cb.perm_table(k).slide.items()
              if j == i and compose_by_definition(transposition(i, i + 1, k),
                                                  cb.coset_rep(c, k)) in only}
    assert slides
    patch_table(monkeypatch, cb, k, slide=slides)
    flags = _linearity_flags(k)
    assert flags == naive_mackey_linearity(k)
    assert not flags['m2-left-linear']


@pytest.mark.parametrize('i', [1, 2, 3])
def test_mackey_m1_linearity_checks_every_generator(fresh_memos, monkeypatch, i):
    # in the table of S_4 alone, s_i times 1 and s_i times s_i trade places: that
    # row is the left action m1 is compared with, for s_i only, so skipping s_i
    # in m1-left-linear would hide the fault (the table of S_5 is left as it is)
    k = 4
    s_i = cb.perm_table(k).left[i][0]
    patch_table(monkeypatch, cb, k, left={(i, 0): 0, (i, s_i): s_i})
    with pytest.raises(VerificationFailure) as info:
        bm.mackey_check(k)
    assert str(info.value) == f'Mackey check fails at k = {k}: m1-left-linear'
    flags = {e['check']: e['pass'] for e in info.value.report}
    assert (flags['m1-left-linear'], flags['m1-right-linear']) == (False, True)


def test_character_values():
    # hook lengths of (2,1) give dimension 2; sign and trivial are pinned
    assert bm.character_value((2, 1), (1, 1, 1)) == 2
    assert bm.character_value((2, 1), (2, 1)) == 0
    assert bm.character_value((2, 1), (3,)) == -1
    for alpha in partitions_of(5):
        assert bm.character_value((5,), alpha) == 1
        swaps = sum(part - 1 for part in alpha)
        assert bm.character_value((1, 1, 1, 1, 1), alpha) == (-1) ** swaps
    with pytest.raises(ValueError):
        bm.character_value((2,), (3,))


def test_character_orthogonality():
    # first orthogonality of irreducible characters via the cycle-type sum
    for size in range(1, 6):
        lams = list(partitions_of(size))
        for lam in lams:
            for mu in lams:
                total = Fraction(0)
                for alpha in partitions_of(size):
                    total += Fraction(
                        bm.character_value(lam, alpha)
                        * bm.character_value(mu, alpha),
                        bm._z(alpha))
                assert total == (1 if lam == mu else 0)


def test_induced_character_decomposition():
    assert bm.induced_character_decomposition((1,), (1,)) == \
        {(2,): 1, (1, 1): 1}
    assert bm.induced_character_decomposition((), (2, 1)) == {(2, 1): 1}
    assert bm.induced_character_decomposition((2, 1), ()) == {(2, 1): 1}
    assert bm.induced_character_decomposition((2,), (1, 1)) == \
        {(3, 1): 1, (2, 1, 1): 1}
    # Pieri rule for a row
    assert bm.induced_character_decomposition((2, 1), (2,)) == \
        {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}
    with pytest.raises(BoundExceeded):
        bm.induced_character_decomposition((4, 2), (2,))


def test_induced_decomposition_rejects_a_wrong_class_size(fresh_memos, monkeypatch):
    true_z = bm._z
    # z_(2,1) is 2; 3 keeps 3!/z integral but breaks the inner products
    monkeypatch.setattr(bm, '_z', lambda alpha: 3 if alpha == (2, 1) else true_z(alpha))
    with pytest.raises(VerificationFailure, match=r'non-integral multiplicity 5/6 for \(4,\)'):
        bm.induced_character_decomposition((3,), (1,))
    monkeypatch.setattr(bm, '_z', lambda alpha: 4 if alpha == (2, 1) else true_z(alpha))
    fresh_memos()  # the class weights of (3,) were built on the first wrong size
    with pytest.raises(VerificationFailure, match='does not divide 3!'):
        bm.induced_character_decomposition((3,), (1,))


def test_induced_decomposition_matches_lr_oracle():
    from symcat.symfunc import lr_coefficients
    for total in range(0, 7):
        for a in range(0, total + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    assert bm.induced_character_decomposition(lam, mu) == \
                        lr_coefficients(lam, mu), (lam, mu)


def test_matrix_text():
    rep = bm.diagram_to_map(mor('sig:; cup+1; cap+1'), 1)
    assert bm.matrix_text(rep) == '1/1'
    rep = bm.LinearMapRep.zero(bm.path_from_signature('', 2),
                               bm.path_from_signature('', 2))
    assert bm.matrix_text(rep) == '0/1 0/1\n0/1 0/1'


def test_linear_map_rep_validates_shape():
    path = bm.path_from_signature('', 2)
    with pytest.raises(ValueError):
        bm.LinearMapRep(path, path, [[1]])


def test_matrix_rank():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)],
            [Fraction(0), Fraction(1)]]
    assert bm.matrix_rank(rows) == 2
    assert bm.matrix_rank([]) == 0


def test_report_json_deterministic():
    report = bm.mackey_check(2)
    assert bm.report_json(report) == bm.report_json(list(report))
    assert '"pass": true' in bm.report_json(report)


def naive_ga_product(a, b):
    """Oracle: the Fraction double loop over both supports, composing by the definition."""
    out = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            w = compose_by_definition(u, v)
            out[w] = out.get(w, Fraction(0)) + Fraction(cu) * Fraction(cv)
    return {w: c for w, c in out.items() if c}


def test_ga_product_matches_fraction_double_loop():
    rng = random.Random(2026)
    for trial in range(60):
        n = rng.randint(1, 4)
        perms = list(all_perms(n))

        def elem():
            return bm.GroupAlgElem(n, {
                rng.choice(perms): (Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                                    if rng.random() < 0.5 else rng.randint(-5, 5))
                for _ in range(rng.randint(0, 5))})
        a, b = elem(), elem()
        got = bm.ga_product(a, b)
        assert got.coeffs == naive_ga_product(a, b)
        assert all(type(c) is int or c.denominator != 1 for c in got.coeffs.values())
    for n in range(1, 6):
        elems = (bm.symmetrizer(n), bm.antisymmetrizer(n), bm.ga_perm(list(all_perms(n))[-1]))
        for a in elems:
            for b in elems:
                assert bm.ga_product(a, b).coeffs == naive_ga_product(a, b)


def naive_right_mult_matrix(a):
    """Oracle: row u holds the coefficients of u*a from `naive_ga_product`."""
    basis = list(all_perms(a.n))
    return [[naive_ga_product(bm.ga_perm(u), a).get(w, 0) for w in basis] for u in basis]


def test_group_algebra_kernels_match_the_oracles_from_rank_zero():
    # at ranks 0 and 1 a right factor composes through `tuple`, not itemgetter
    for n in range(5):
        elems = [bm.GroupAlgElem(n, {}), Fraction(-2, 3) * bm.ga_unit(n),
                 bm.symmetrizer(n), bm.antisymmetrizer(n), bm.ga_perm(list(all_perms(n))[-1])]
        for a in elems:
            assert bm.right_mult_matrix(a) == naive_right_mult_matrix(a)
            for b in elems:
                assert bm.ga_product(a, b).coeffs == naive_ga_product(a, b)


def test_group_algebra_coefficients_are_int_first():
    a = bm.GroupAlgElem(2, {(1, 2): Fraction(4, 2), (2, 1): Fraction(1, 3)})
    assert type(a.coeffs[(1, 2)]) is int
    assert a.coeffs[(2, 1)] == Fraction(1, 3)
    assert type((Fraction(3) * bm.ga_unit(2)).coeffs[(1, 2)]) is int
    assert type(bm.ga_product(a, a).coeffs[(1, 2)]) is Fraction  # 4 + 1/9
    assert all(type(c) is int for c in bm.ga_product(
        3 * bm.symmetrizer(3), 2 * bm.symmetrizer(3)).coeffs.values())
    assert all(type(c) is int for row in bm.right_mult_matrix(bm.ga_perm((2, 1, 3)))
               for c in row)


def cell_types(rep):
    return {type(x) for row in rep.matrix for x in row}


def test_diagram_to_map_cell_types():
    # integral morphisms give int cells only
    for text, base in (('sig:UU; x1', 2), ('sig:; cup-1; cap-1', 3),
                       ('sig:DU; x1; x1', 2), ('sig:U; cup+1; x2; cap+1', 1)):
        assert cell_types(bm.diagram_to_map(mor(text), base)) == {int}
    # a non-integral coefficient gives Fraction exactly in the cells it reaches
    rep = bm.diagram_to_map(Fraction(1, 2) * mor('sig:UU; x1'), 2)
    for row in rep.matrix:
        for x in row:
            assert (type(x) is Fraction) == (x != 0)
            assert x in (0, Fraction(1, 2))
    # halves that add up to an integer come back as int
    half = Fraction(1, 2) * mor('sig:UU; x1; x1')
    rep = bm.diagram_to_map(half + Fraction(1, 2) * mor('sig:UU'), 2)
    assert rep.is_identity()
    assert cell_types(rep) == {int}
    # the clockwise circle at rank 3 acts by 3 in the exact-int cells
    rep = bm.diagram_to_map(Fraction(1, 3) * mor('sig:; cup-1; cap-1'), 3)
    assert rep.is_identity() and cell_types(rep) == {int}


def test_linear_map_rep_public_constructor():
    path = bm.path_from_signature('U', 1)
    with pytest.raises(ValueError):
        bm.LinearMapRep(path, path, [[1, 0], [0]])
    with pytest.raises(ValueError):
        bm.LinearMapRep(path, path, [[1, 0]])
    with pytest.raises(ValueError, match='matrix shape is not 2 x 2'):
        bm.LinearMapRep(path, path, [[1, 0], [0, 1], [0, 0]])
    for bad in (0.5, 1.0, '1'):
        with pytest.raises(TypeError):
            bm.LinearMapRep(path, path, [[1, 0], [0, bad]])
    rep = bm.LinearMapRep(path, path, [[Fraction(2, 2), 0], [0, Fraction(1, 2)]])
    assert type(rep.matrix[0][0]) is int and rep.matrix[1][1] == Fraction(1, 2)
    assert rep.rows == ({0: 1}, {1: Fraction(1, 2)}) and type(rep.rows[0][0]) is int
    assert bm.LinearMapRep(path, path, [[0, Fraction(0, 3)], [0, 0]]).rows == ({}, {})
    assert bm.LinearMapRep(path, path, [[1, 0], [0, 1]]) == bm.LinearMapRep.identity(path)
    assert bm.LinearMapRep.zero(path, path).is_zero()
    assert cell_types(bm.LinearMapRep.identity(path)) == {int}


def test_identity_and_zero_read_every_row():
    # x1 permutes the basis: one entry per row, but not the identity
    rep = bm.diagram_to_map(mor('sig:UU; x1'), 2)
    assert all(len(row) == 1 for row in rep.rows) and not rep.is_identity()
    assert not bm.diagram_to_map(2 * mor('sig:UU'), 2).is_identity()
    # the DU crossing sends some basis tensors to 0 and others not
    rep = bm.diagram_to_map(mor('sig:DU; x1'), 2)
    assert {} in rep.rows and any(not any(row) for row in rep.matrix)
    assert not rep.is_zero()


def test_character_cache_is_bounded():
    info = bm._mn_character.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    assert bm.character_value((3, 2), (2, 2, 1)) == 1
    assert bm._mn_character.cache_info().currsize <= info.maxsize


def _slices_on(sig):
    """Every slice that applies to a signature."""
    out = [('x', i) for i in range(1, len(sig))]
    out += [(c, i) for i in range(1, len(sig) + 2) for c in ('cup+', 'cup-')]
    out += [('cap+', i) for i in range(1, len(sig)) if sig[i - 1:i + 1] == 'DU']
    out += [('cap-', i) for i in range(1, len(sig)) if sig[i - 1:i + 1] == 'UD']
    return out


def test_slice_walk_is_right_linear():
    # f(t s_j) = f(t) s_j for the tuple walk, _slice_images then canonicalize, on
    # every slice of every signature of up to 3 strands, every tensor at base <= 3
    # and every s_j: the premise on which slice tables derive all but their
    # generator entries, and verify_local_relation reads only generator rows
    checks = 0
    kinds = set()
    for sig in (''.join(w) for n in range(4) for w in itertools.product('UD', repeat=n)):
        for sl in _slices_on(sig):
            top = dg._apply_slice(sig, sl)
            for base in range(4):
                try:
                    below = bm.path_from_signature(sig, base)
                    above = bm.path_from_signature(top, base)
                except UnrealizableAtRank:
                    continue

                def walk(t):
                    return sorted(bm.canonicalize(above, image)
                                  for image in bm._slice_images(below, above, sl, t))

                for t in bm.tensor_basis(below):
                    images = walk(t)
                    for j in range(1, base):
                        s_j = cb.simple_transposition(j, base)
                        assert walk(t[:-1] + (perm_mult(t[-1], s_j),)) == sorted(
                            image[:-1] + (perm_mult(image[-1], s_j),) for image in images)
                        checks += 1
                        kinds.add(sl[0])
    assert checks == 27202 and kinds == {'x', 'cup+', 'cup-', 'cap+', 'cap-'}


def test_memoised_diagram_to_map_matches_a_fresh_walk(fresh_memos):
    from symcat import cases
    rng = random.Random(16)
    compared = 0
    for _ in range(60):
        m = Morphism.from_diagram(cases.random_diagram(rng, max_sig=3, max_slices=4))
        base = rng.randint(0, 3)  # from base 2 on, most entries are derived from a generator's
        try:
            memoised = bm.diagram_to_map(m, base)
        except UnrealizableAtRank:
            fresh_memos()
            with pytest.raises(UnrealizableAtRank):
                fresh_walk(m, base)
            continue
        again = bm.diagram_to_map(m, base)  # now read from warm memos
        fresh_memos()
        fresh = fresh_walk(m, base)
        assert [im.coeffs for im in memoised.images] == fresh
        assert again == memoised
        compared += 1
    assert compared >= 30


def test_kernel_memos_are_bounded(fresh_memos):
    bm.verify_local_relation('braid', 2)
    nx.verify_bimodule_iso(3)
    nx.nc_product(nx.nc_generator(1, 3), nx.nc_generator(2, 3))  # lengths, by `_times`
    hs.heis_normalize(hs.parse_heisword('h2* h1* e1 e2'))
    bm.character_value((2, 1), (3,))
    bm.induced_character_decomposition((2,), (1,))
    for memo in (bm._slice_table, bm.path_from_signature,
                 bm._mn_character, bm._class_weights, cb._inversions, coset_rep,
                 cb.perm_table, hs._with_part, hs._hstar_past_e):
        info = memo.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
    # both sides of the level-2 braid read one x1 and one x2 table of its 5! basis
    # tensors; they follow only the paths from the 60 generator ranks (free factor
    # 1), so a table is filled at its generator ranks and where those paths reach
    info = bm._slice_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
    levels = bm.path_from_signature('UUU', 2).levels
    tables = {j: bm._slice_table(levels, ('x', j)) for j in (1, 2)}
    generators = set(range(0, 120, 2))
    reached = {1: set(generators), 2: set(generators)}
    for word in ((1, 2, 1), (2, 1, 2)):
        ends = generators
        for j in word:
            reached[j] |= ends
            ends = {end for r in ends for end in tables[j][r]}
    for j, table in tables.items():
        assert len(table) == 120
        assert {r for r, images in enumerate(table) if images is not None} == reached[j]
        assert None in table


def test_slice_tables_keep_their_table_bound(fresh_memos):
    bm.diagram_to_map(mor('sig:; cup+1; cap+1'), 2)
    assert bm._slice_table.cache_info().currsize == 2
    cup = bm._slice_table((2,), ('cup+', 1))
    assert len(cup) == 2 and None not in cup
    # a table is filled only where it is read: the cap on DU (3 * 2! tensors) at
    # the two images of the cup
    cap = bm._slice_table((2, 3, 2), ('cap+', 1))
    assert len(cap) == 6 and cap.count(None) == 4
    assert [cap[r] for r in itertools.chain.from_iterable(cup)] == [(0,), (1,)]
    # the bound counts tables, whatever their sizes, and drops the least recently read
    assert bm._slice_table.cache_info().maxsize == 256
    for j in range(255):
        bm._slice_table((0, 1), ('x', j))  # one-entry tables; the memo reads no slice
    assert bm._slice_table.cache_info().currsize == 256
    assert bm._slice_table((2, 3, 2), ('cap+', 1)) is cap
    assert bm._slice_table((2,), ('cup+', 1)) is not cup


def test_local_relation_catches_a_wrong_canonical_slot(fresh_memos, monkeypatch):
    true_canonicalize = bm.canonicalize
    path = bm.path_from_signature('UUU', 2)
    target = bm.tensor_basis(path)[0]

    def corrupted(p, elem):
        # one basis tensor gets the other element of S_2 in its free factor
        out = true_canonicalize(p, elem)
        if p == path and out == target:
            return out[:-1] + (tuple(reversed(out[-1])),)
        return out

    monkeypatch.setattr(bm, 'canonicalize', corrupted)
    with pytest.raises(VerificationFailure, match="local relation 'braid' fails at level 2"):
        bm.verify_local_relation('braid', 2)


def _realizable_paths():
    """(signature, base, path) for every signature of length <= 4 at base <= 3
    that does not drop below rank 0: 93 paths."""
    for k in range(5):
        for letters in itertools.product('UD', repeat=k):
            sig = ''.join(letters)
            for base in range(4):
                try:
                    yield sig, base, bm.path_from_signature(sig, base)
                except UnrealizableAtRank:
                    continue


def test_rank_and_unrank_follow_tensor_basis_order():
    paths = 0
    for sig, base, path in _realizable_paths():
        basis = bm.tensor_basis(path)
        assert path.size == len(basis), (sig, base)
        assert [bm._rank(path, elem) for elem in basis] == list(range(len(basis))), (sig, base)
        assert [bm._unrank(path, r) for r in range(len(basis))] == basis, (sig, base)
        paths += 1
    assert paths == 93


def test_path_carries_its_layout_and_size():
    paths = 0
    for sig, base, path in _realizable_paths():
        assert ''.join('U' if up else 'D' for up, _m in path.layout) == sig, (sig, base)
        # slot p lies between levels k - p (on its left) and k - p - 1
        k, levels = len(sig), path.levels
        assert [m for _up, m in path.layout] == \
            [max(levels[k - p], levels[k - p - 1]) for p in range(k)], (sig, base)
        assert path.size == len(bm.tensor_basis(path)), (sig, base)
        for name in ('layout', 'size'):
            with pytest.raises(AttributeError, match='immutable'):
                setattr(path, name, ())
        paths += 1
    assert paths == 93


@pytest.mark.parametrize('levels', [(2.7, 3.2), ('2', '3'), (True, 2), (2, 3.0)])
def test_path_refuses_levels_that_are_not_ints(levels):
    with pytest.raises(ValueError, match='is not an int'):
        bm.BimodulePath(levels)


def test_half_maps_read_the_same_through_every_view(fresh_memos):
    # 1/2 D against the direct walk of D: the images, the dense view, == and
    # is_zero, with a Fraction cell exactly where 1/2 reaches an odd count
    from symcat import cases
    half = Fraction(1, 2)
    rng = random.Random(28)
    compared = zeros = 0
    for _ in range(60):
        m = Morphism.from_diagram(cases.random_diagram(rng, max_sig=3, max_slices=4))
        base = rng.randint(0, 2)
        try:
            rep = bm.diagram_to_map(half * m, base)
        except UnrealizableAtRank:
            continue
        fresh = fresh_walk(m, base)
        want = [{e: half * c for e, c in image.items()} for image in fresh]
        assert [im.coeffs for im in rep.images] == want
        for image in rep.images:
            assert all((type(c) is Fraction) == (c.denominator != 1)
                       for c in image.coeffs.values())
        cod = bm.tensor_basis(rep.codomain)
        assert rep.matrix == tuple(tuple(image.get(e, 0) for e in cod) for image in want)
        assert all((type(x) is Fraction) == (x.denominator != 1)
                   for row in rep.matrix for x in row)
        assert rep == bm.LinearMapRep(rep.domain, rep.codomain, rep.matrix)
        assert rep != bm.diagram_to_map(m, base) or rep.is_zero()
        assert rep.is_zero() == (not any(fresh))
        compared += 1
        zeros += rep.is_zero()
    assert compared >= 30 and 0 < zeros < compared
