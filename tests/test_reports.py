"""Forced failures of the eight report-building verifiers.

Each test breaks one dependency of a verifier with monkeypatch and pins the
VerificationFailure it raises: the message names the first failing entry,
and `exc.report` holds every entry of the run, the failing ones included.
"""

from fractions import Fraction

import pytest

import symcat.bimodel as bm
import symcat.combinatorics as cb
import symcat.diagcat as dg
import symcat.heisenberg as hs
import symcat.nilcoxeter as nx
from symcat.combinatorics import perm_table
from symcat.errors import VerificationFailure

from conftest import patch_table


def _failure(fn, *args):
    with pytest.raises(VerificationFailure) as info:
        fn(*args)
    return str(info.value), info.value.report


def test_local_relation_failure(fresh_memos, monkeypatch):
    real = bm._generator_rows

    def broken(m, base, *flag):
        # the two-term side, identity minus cap;cup, becomes the identity
        rows = real(m, base, *flag)
        return tuple({r: 1} for r in range(len(rows))) if len(m.terms) == 2 else rows

    monkeypatch.setattr(bm, '_generator_rows', broken)
    message, report = _failure(bm.verify_local_relation, 'mixed-double', 0)
    detail = ('double crossing on DU equals identity minus cap;cup; '
              'first difference at entry (0, 0): 0 != 1')
    assert message == f"local relation 'mixed-double' fails at level 0: {detail}"
    assert report == [
        {'check': 'du-double', 'relation': 'mixed-double', 'level': 0, 'pass': False,
         'detail': detail},
        {'check': 'ud-double', 'relation': 'mixed-double', 'level': 0, 'pass': True,
         'detail': 'double crossing on UD equals the identity '
                   '(zero module at this rank: vacuous)'},
    ]


def _braid_with_a_fault(monkeypatch, row, col):
    """Have verify_local_relation read x2 x1 x2 with -1/2 added at entry (row, col)
    of its generator rows; the other entries stay exact."""
    real = bm._generator_rows

    def broken(m, base, *flag):
        rows = real(m, base, *flag)
        if 'x2; x1; x2' not in repr(m):
            return rows
        rows = [dict(r) for r in rows]
        rows[row][col] = rows[row].get(col, 0) - Fraction(1, 2)
        return tuple(rows)

    monkeypatch.setattr(bm, '_generator_rows', broken)


def test_local_relation_first_difference_past_the_first_entry(fresh_memos, monkeypatch):
    # at level 1 every rank is a generator (1! = 1), so the rows are the dense rows
    _braid_with_a_fault(monkeypatch, 7, 3)
    lhs, rhs = (bm.diagram_to_map(dg.Morphism.from_diagram(dg.parse_diagram(f'sig:UUU; {w}')), 1)
                for w in ('x1; x2; x1', 'x2; x1; x2'))
    rhs = [list(row) for row in rhs.matrix]
    rhs[7][3] -= Fraction(1, 2)
    # the first difference by a row-major scan of the dense views
    r, c, a, b = next((r, c, a, b)
                      for r, (lr, rr) in enumerate(zip(lhs.matrix, rhs))
                      for c, (a, b) in enumerate(zip(lr, rr)) if a != b)
    message, report = _failure(bm.verify_local_relation, 'braid', 1)
    detail = f'x1 x2 x1 = x2 x1 x2 on UUU; first difference at entry ({r}, {c}): {a} != {b}'
    assert (r, c, str(a), str(b)) == (7, 3, '0', '-1/2')
    assert message == f"local relation 'braid' fails at level 1: {detail}"
    assert report == [{'check': 'braid', 'relation': 'braid', 'level': 1, 'pass': False,
                       'detail': detail}]


def test_local_relation_names_a_generator_row_by_its_rank(fresh_memos, monkeypatch):
    # at level 2 the generator rows are the ranks 0, 2, 4, ...: the fourth is rank 6
    _braid_with_a_fault(monkeypatch, 3, 5)
    message, _report = _failure(bm.verify_local_relation, 'braid', 2)
    assert message == ("local relation 'braid' fails at level 2: x1 x2 x1 = x2 x1 x2 on UUU; "
                       "first difference at entry (6, 5): 0 != -1/2")


def test_mackey_failure(fresh_memos, monkeypatch):
    # t = s_2 in S_3 acts as the identity, so m2 sends r_i (x) 1 (x) b to r_i b
    patch_table(monkeypatch, cb, 3, left={(2, r): r for r in range(6)})
    message, report = _failure(bm.mackey_check, 2)
    assert message == 'Mackey check fails at k = 2: m2-injective'
    assert [(e['check'], e['pass']) for e in report] == [
        ('dimension', True), ('m1-injective', True), ('m1-image-criterion', True),
        ('m2-injective', False), ('images-disjoint', False), ('images-span', False),
        ('m1-left-linear', True), ('m1-right-linear', True), ('m2-left-linear', True),
        ('m2-right-linear', True), ('m2-well-defined', True)]
    assert report[3] == {'check': 'm2-injective', 'k': 2, 'pass': False,
                         'detail': 'a (x) b -> a.t.b is injective on the coset basis'}
    assert all(set(e) == {'check', 'k', 'pass', 'detail'} for e in report)


def test_mackey_catches_a_wrong_product_on_an_image(fresh_memos, monkeypatch):
    # In A_4, s_1 and s_2 times u = s_1 s_2 s_3, the m2 image of the first basis tensor
    # r_1 (x) 1 (x) 1, come out as u on both sides.  u moves 4, so no m1 check reads it,
    # and no m2 image is built through it, so only the two m2 linearity checks do.
    u = perm_table(4).rank[(2, 3, 4, 1)]
    edits = {(j, u): u for j in (1, 2)}
    patch_table(monkeypatch, cb, 4, left=edits, right=edits)
    message, report = _failure(bm.mackey_check, 3)
    assert message == 'Mackey check fails at k = 3: m2-left-linear'
    assert [(e['check'], e['pass']) for e in report] == [
        ('dimension', True), ('m1-injective', True), ('m1-image-criterion', True),
        ('m2-injective', True), ('images-disjoint', True), ('images-span', True),
        ('m1-left-linear', True), ('m1-right-linear', True), ('m2-left-linear', False),
        ('m2-right-linear', False), ('m2-well-defined', True)]


_S2 = (2, 1, 3)  # s_1 in S_3


@pytest.mark.parametrize('corrupt, first, failing', [
    # one image moved off the permutations fixing 4
    ({_S2: (2, 1, 4, 3)}, 'm1-image-criterion',
     {'m1-image-criterion', 'images-disjoint', 'm2-left-linear'}),
    # one image collides with the identity's
    ({_S2: (1, 2, 3, 4)}, 'm1-injective',
     {'m1-injective', 'm1-image-criterion', 'm2-injective', 'images-span', 'm2-left-linear'}),
    # two images swapped: still a bijection onto the stabilizer of 4, so only
    # linearity sees it.  The swap is left multiplication by s_1 on {1, s_1},
    # and every slide's rho lies in S_2 = {1, s_1}, so m2 = a t m1(b) stays left
    # linear
    ({_S2: (1, 2, 3, 4), (1, 2, 3): (2, 1, 3, 4)}, 'm1-left-linear', set()),
])
def test_mackey_catches_a_wrong_inclusion(fresh_memos, monkeypatch,
                                          corrupt, first, failing):
    # m1 reads the rank of v extended by 4 in the table of S_4, so the fault moves
    # those ranks.  On the generators c of S_3 the left equations m1(c v) = m1(c) m1(v)
    # and the right ones m1(v c) = m1(v) m1(c) are two sets, but each holds for every v
    # exactly when m1 is multiplicative, so a wrong extension fails both m1 sides, and
    # m2 = a t m1(b) on the right with them.
    rank = perm_table(4).rank
    patch_table(monkeypatch, cb, 4, rank={v + (4,): rank[w] for v, w in corrupt.items()})
    message, report = _failure(bm.mackey_check, 3)
    assert message == f'Mackey check fails at k = 3: {first}'
    failing = failing | {'m1-left-linear', 'm1-right-linear', 'm2-right-linear'}
    assert [(e['check'], e['pass']) for e in report] == [
        (check, check not in failing) for check in (
            'dimension', 'm1-injective', 'm1-image-criterion', 'm2-injective',
            'images-disjoint', 'images-span', 'm1-left-linear', 'm1-right-linear',
            'm2-left-linear', 'm2-right-linear', 'm2-well-defined')]


def test_heis_relation_failure(monkeypatch):
    monkeypatch.setattr(hs, 'fock_apply', lambda a, f: 0 * f)
    message, report = _failure(hs.verify_heis_relation, 1, 1, 1)
    assert message == ("Heisenberg relation check 'normalize-compatible' failed for "
                       "(m, n) = (1, 1) at lambda=[]")
    tags = {'m': 1, 'n': 1}
    assert report == [
        {'check': 'structural', **tags, 'pass': True,
         'detail': 'normal form of h_m* e_n matches e_n h_m* + e_{n-1} h_{m-1}*'},
        {'check': 'operator', **tags, 'pass': True,
         'detail': 'both sides applied to s_[]', 'lambda': []},
        {'check': 'normalize-compatible', **tags, 'pass': False,
         'detail': 'normal form acts like the word on s_[]', 'lambda': []},
        {'check': 'operator', **tags, 'pass': True,
         'detail': 'both sides applied to s_[1]', 'lambda': [1]},
        {'check': 'normalize-compatible', **tags, 'pass': False,
         'detail': 'normal form acts like the word on s_[1]', 'lambda': [1]},
    ]


def test_boson_relation_failure(monkeypatch):
    monkeypatch.setattr(hs, 'dual_apply', lambda f, g: 0 * g)
    message, report = _failure(hs.verify_boson_relation, 1, 1, 1)
    assert message == 'boson relation failed for (m, n) = (1, 1) at lambda=[]'
    assert report == [
        {'check': 'boson-commutator', 'm': 1, 'n': 1, 'lambda': lam, 'pass': False,
         'detail': f'[q_1, p_1] on s_{lam}'} for lam in ([], [1])]


def test_weak_fock_failure(monkeypatch):
    monkeypatch.setattr(hs, 'multiply', lambda f, g: g)
    message, report = _failure(hs.verify_weak_fock, 1, 1, 1)
    assert message == ("class-level check 'res-ind-exchange' failed for "
                       "(m, n) = (1, 1) at lambda=[]")
    assert report == [
        {'check': name, 'm': 1, 'n': 1, 'lambda': lam, 'pass': name != 'res-ind-exchange',
         'detail': f'on s_{lam}'}
        for lam in ([], [1])
        for name in ('ind-ind-commute', 'res-res-commute', 'res-ind-exchange')]


def test_bimodule_iso_failure(monkeypatch):
    # every push u_j u_{r_i} splits with r_n = 1 and rho = 1, so the left tensor factor is lost
    patch_table(monkeypatch, cb, 2, slide={key: (2, ()) for key in perm_table(2).slide})
    message, report = _failure(nx.verify_bimodule_iso, 2)
    assert message == ("bimodule decomposition check 'm2-left-linear' failed at n=2: "
                       "m_2 commutes with the left action (well-defined over the tensor)")
    assert [(e['check'], e['pass']) for e in report] == [
        ('m1-injective', True), ('m2-basis-to-basis', True), ('m2-injective', True),
        ('images-disjoint', True), ('m1-image-criterion', True), ('images-span', True),
        ('m1-bimodule-map', True), ('m2-left-linear', False), ('m2-right-linear', True)]
    assert report[5] == {'check': 'images-span', 'n': 2, 'pass': True,
                         'detail': '2 + 2*2 = 6 (expect 6)'}
    assert all(set(e) == {'check', 'n', 'pass', 'detail'} for e in report)


def test_bimodule_iso_catches_a_wrong_slide(monkeypatch):
    # u_1 u_{r_2} = u_{s_1 s_2} is u_{r_1} with rho = 1, but the slide gives rho = s_1;
    # only the left action reads slides
    assert perm_table(3).slide[1, 2] == (1, ())
    patch_table(monkeypatch, cb, 3, slide={(1, 2): (1, (1,))})
    message, report = _failure(nx.verify_bimodule_iso, 3)
    assert message == ("bimodule decomposition check 'm2-left-linear' failed at n=3: "
                       "m_2 commutes with the left action (well-defined over the tensor)")
    assert [(e['check'], e['pass']) for e in report] == [
        ('m1-injective', True), ('m2-basis-to-basis', True), ('m2-injective', True),
        ('images-disjoint', True), ('m1-image-criterion', True), ('images-span', True),
        ('m1-bimodule-map', True), ('m2-left-linear', False), ('m2-right-linear', True)]


def test_bimodule_iso_catches_a_wrong_right_product(monkeypatch):
    # u_[] u_1 in N_3 comes out u_2: the right action of N_3 is read by m_1
    # compatibility and by the right action on the free factor tau, nowhere else
    rank = perm_table(3).rank
    patch_table(monkeypatch, cb, 3, nil_right={(1, rank[(1, 2, 3)]): rank[(1, 3, 2)]})
    message, report = _failure(nx.verify_bimodule_iso, 3)
    assert message == ("bimodule decomposition check 'm1-bimodule-map' failed at n=3: "
                       "m_1 commutes with both actions on generators")
    assert [(e['check'], e['pass']) for e in report] == [
        ('m1-injective', True), ('m2-basis-to-basis', True), ('m2-injective', True),
        ('images-disjoint', True), ('m1-image-criterion', True), ('images-span', True),
        ('m1-bimodule-map', False), ('m2-left-linear', True), ('m2-right-linear', False)]


def test_bimodule_iso_catches_a_tensor_sent_to_zero(monkeypatch):
    # u_2 u_{(2,1,3)} in N_3 comes out 0, so m_2 sends the tensors (2, (2,1)) and
    # (1, (2,1)) to 0; the image checks count only the one image formed before the
    # first of them
    rank = perm_table(3).rank
    patch_table(monkeypatch, cb, 3, nil_left={(2, rank[(2, 1, 3)]): None})
    message, report = _failure(nx.verify_bimodule_iso, 2)
    assert message == ("bimodule decomposition check 'm2-basis-to-basis' failed at n=2: "
                       "every basis tensor maps to a single u_sigma with coefficient 1")
    assert [(e['check'], e['pass']) for e in report] == [
        ('m1-injective', True), ('m2-basis-to-basis', False), ('m2-injective', False),
        ('images-disjoint', False), ('m1-image-criterion', True), ('images-span', False),
        ('m1-bimodule-map', True), ('m2-left-linear', True), ('m2-right-linear', False)]
    assert report[2]['detail'] == '1 distinct images of 4 tensors'
    assert report[5]['detail'] == '2 + 2*2 = 3 (expect 6)'


def test_weyl_squares_failure(monkeypatch):
    monkeypatch.setattr(nx, 'res_K', lambda v: nx.KVector(v.flavor, {}))
    message, report = _failure(nx.verify_weyl_squares, 2)
    assert message == "K-theory check 'res-square-simples' failed: phi o res = d o phi on classes 0..2"
    details = {'ind-square': 'phi o ind = x o phi on classes 0..2',
               'res-square': 'phi o res = d o phi on classes 0..2',
               'weyl-relation': 'res o ind = ind o res + id on classes 0..2'}
    assert report == [
        {'check': f'{kind}-{label}', 'n': 2, 'pass': kind == 'ind-square',
         'detail': detail}
        for label in ('simples', 'projectives') for kind, detail in details.items()
    ] + [{'check': 'ind-res-adjoint', 'n': 2, 'pass': False,
          'detail': 'pairing adjunction on classes 0..8'}]


def test_k0_relations_failure(monkeypatch):
    monkeypatch.setattr(dg, '_signature_dimension', lambda sig, base: 1)
    message, report = _failure(dg.verify_k0_relations, 1, 1, 1)
    assert message == ("K_0 check 'dim-consistency-base-0' failed for (m, n) = (1, 1): "
                       "dim(down^1 up^1 at 0) = 1, expansion gives 2")
    assert [(e['check'], e['pass']) for e in report] == [
        ('lambda-commute', True), ('s-commute', True), ('s-lambda-exchange', True),
        ('dim-consistency-base-0', False), ('dim-consistency-base-1', False)]
    assert report[4] == {'check': 'dim-consistency-base-1', 'm': 1, 'n': 1, 'pass': False,
                         'detail': 'dim(down^1 up^1 at 1) = 1, expansion gives 2'}
    assert all(set(e) == {'check', 'm', 'n', 'pass', 'detail'} for e in report)
