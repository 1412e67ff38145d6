"""End-to-end acceptance suite: one test per headline guarantee.

Every check is an exact identity over the integers or rationals — no
tolerances anywhere.  Each test exercises one guarantee at its full
advertised bounds, so ``pytest tests/test_acceptance.py -v`` prints one
pass/fail line per criterion.
"""

import math
from fractions import Fraction

import symcat.bimodel as bm
import symcat.combinatorics as cb
import symcat.diagcat as dg
import symcat.heisenberg as hs
import symcat.nilcoxeter as nc
import symcat.symfunc as sf


def _mor(text):
    return dg.Morphism.from_diagram(dg.parse_diagram(text))


def _elem_key(f):
    return (f.basis, tuple(sorted(f.coeffs.items())))


class _ProductCache:
    """Memoised multiply, keyed by the operands' coefficient tables.

    Coproduct components repeat heavily across the generator grid; caching
    keeps the tensor-table comparisons below from redoing identical
    degree-12 products hundreds of times.
    """

    def __init__(self):
        self.table = {}

    def __call__(self, a, b):
        key = (_elem_key(a), _elem_key(b))
        if key not in self.table:
            self.table[key] = sf.multiply(a, b)
        return self.table[key]


def _tensor_table(triples, basis):
    """Canonical (partition, partition) -> coefficient table of a tensor sum."""
    table = {}
    for c, a, b in triples:
        for lam, ca in sf.convert(a, basis).coeffs.items():
            for mu, cb_ in sf.convert(b, basis).coeffs.items():
                key = (lam, mu)
                table[key] = table.get(key, 0) + c * ca * cb_
    return {key: v for key, v in table.items() if v}


def test_criterion_01_products_match_polynomial_oracle():
    """multiply agrees with honest polynomial multiplication in 10 variables
    for every pair of m/e/h/s basis elements of total degree <= 5."""
    nvars = 10
    elems = [(b, lam)
             for d in range(6)
             for lam in cb.partitions_of(d)
             for b in ('m', 'e', 'h', 's')]
    expanded = {key: sf.monomial_expand(sf.basis_element(*key), nvars)
                for key in elems}
    checked = 0
    for i, (b1, lam) in enumerate(elems):
        f = sf.basis_element(b1, lam)
        for b2, mu in elems[i:]:
            if sum(lam) + sum(mu) > 5:
                continue
            direct = sf.monomial_expand(
                sf.multiply(f, sf.basis_element(b2, mu)), nvars)
            assert direct == sf.poly_mult(expanded[(b1, lam)],
                                          expanded[(b2, mu)]), \
                (b1, lam, b2, mu)
            checked += 1
    assert checked == 600


def test_criterion_02_hall_pairing_dualities():
    """<m_lam, h_mu> and <s_lam, s_mu> are Kronecker deltas for all
    partitions with |lam|, |mu| <= 6, mixed degrees included."""
    parts = [lam for d in range(7) for lam in cb.partitions_of(d)]
    assert len(parts) == 30
    for lam in parts:
        for mu in parts:
            delta = Fraction(1 if lam == mu else 0)
            assert sf.hall_pairing(sf.basis_element('m', lam),
                                   sf.basis_element('h', mu)) == delta, (lam, mu)
            assert sf.hall_pairing(sf.basis_element('s', lam),
                                   sf.basis_element('s', mu)) == delta, (lam, mu)


def test_criterion_03_hopf_axioms_on_generators():
    """Coproduct multiplicativity, both counit laws, both antipode laws, and
    <ab, c> = <a (x) b, coproduct(c)> on the generators h_1..h_6, e_1..e_6."""
    gens = [sf.basis_element(b, (n,)) for b in ('h', 'e') for n in range(1, 7)]
    cops = [sf.coproduct(g) for g in gens]
    mul = _ProductCache()

    for g, cop in zip(gens, cops):
        gm = sf.convert(g, 'm')
        # counit laws: collapsing either tensor factor returns the element
        left = sf.zero('m')
        right = sf.zero('m')
        for c, a, b in cop:
            left = left + (c * sf.counit(a)) * sf.convert(b, 'm')
            right = right + (c * sf.counit(b)) * sf.convert(a, 'm')
        assert left == gm and right == gm, g

        # antipode laws: mult(S (x) id) and mult(id (x) S) both collapse the
        # coproduct to counit(g) times the unit
        want = sf.counit(g) * sf.one('m')
        s_left = sf.zero('m')
        s_right = sf.zero('m')
        for c, a, b in cop:
            s_left = s_left + c * sf.convert(
                sf.multiply(sf.antipode(a), b), 'm')
            s_right = s_right + c * sf.convert(
                sf.multiply(a, sf.antipode(b)), 'm')
        assert s_left == want and s_right == want, g

    # coproduct is an algebra map on every ordered pair of generators
    for i, g1 in enumerate(gens):
        for j, g2 in enumerate(gens):
            lhs = sf.coproduct(mul(g1, g2))
            rhs = [(ca * cb_, mul(aa, ba), mul(ab, bb))
                   for ca, aa, ab in cops[i]
                   for cb_, ba, bb in cops[j]]
            assert _tensor_table(lhs, 'h') == _tensor_table(rhs, 'h'), (i, j)

    # the pairing intertwines product and coproduct on generator triples
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            ab = mul(a, b)
            for k, c in enumerate(gens):
                assert sf.hall_pairing(ab, c) == sum(
                    w * sf.hall_pairing(a, left) * sf.hall_pairing(b, right)
                    for w, left, right in cops[k]), (i, j, k)


def test_criterion_04_weyl_categorification_squares():
    """Induction and restriction on nilcoxeter class groups realize x and d:
    all four class-map squares commute for n <= 10, and
    res o ind - ind o res = id holds on both families of basis classes."""
    report = nc.verify_weyl_squares(max_n=10)
    failures = [e for e in report if not e['pass']]
    assert report and not failures, failures
    checks = {e['check'] for e in report}
    assert {'ind-square-simples', 'res-square-simples',
            'ind-square-projectives', 'res-square-projectives',
            'weyl-relation-simples', 'weyl-relation-projectives'} <= checks
    assert all(e['n'] == 10 for e in report)


def test_criterion_05_nilcoxeter_bimodule_isomorphism():
    """The explicit bimodule maps split N_{n+1} as N_n + n copies for
    1 <= n <= 5, with the dimension identity n! + n*n! = (n+1)!."""
    for n in range(1, 6):
        report = nc.verify_bimodule_iso(n)
        failures = [e for e in report if not e['pass']]
        assert report and not failures, (n, failures)
        checks = {e['check'] for e in report}
        assert {'m1-injective', 'm2-injective',
                'images-disjoint', 'images-span'} <= checks, n
        assert math.factorial(n) + n * math.factorial(n) == \
            math.factorial(n + 1)


def test_criterion_06_heisenberg_defining_relation():
    """h*_m e_n = e_n h*_m + e_{n-1} h*_{m-1} for 1 <= m, n <= 4, both as a
    structural rewrite and as operators on every s_lam with |lam| <= 8."""
    for m in range(1, 5):
        for n in range(1, 5):
            report = hs.verify_heis_relation(m, n, 8)
            failures = [e for e in report if not e['pass']]
            assert report and not failures, (m, n, failures)
            kinds = {e['check'] for e in report}
            assert 'structural' in kinds and 'operator' in kinds, (m, n)


def test_criterion_07_boson_commutator():
    """q_m p_n - p_n q_m = n delta_{m,n} id on all elements of degree <= 6
    for 1 <= m, n <= 3, over the rationals."""
    for m in range(1, 4):
        for n in range(1, 4):
            report = hs.verify_boson_relation(m, n, 6)
            failures = [e for e in report if not e['pass']]
            assert report and not failures, (m, n, failures)


def test_criterion_08_weak_fock_functor_relations():
    """All three induction/restriction relation families hold on symmetric
    group class groups for 1 <= m, n <= 3 up to degree 6, and the character
    oracle reproduces every Littlewood-Richardson table with |lam|+|mu| <= 6."""
    for m in range(1, 4):
        for n in range(1, 4):
            report = hs.verify_weak_fock(m, n, 6)
            failures = [e for e in report if not e['pass']]
            assert report and not failures, (m, n, failures)
            assert {e['check'] for e in report} == \
                {'ind-ind-commute', 'res-res-commute', 'res-ind-exchange'}

    for total in range(7):
        for da in range(total + 1):
            for lam in cb.partitions_of(da):
                for mu in cb.partitions_of(total - da):
                    got = bm.induced_character_decomposition(lam, mu)
                    want = {nu: c for nu, c in
                            sf.lr_coefficients(lam, mu).items() if c}
                    assert got == want, (lam, mu)


def test_criterion_09_graphical_relations_in_bimodule_model():
    """The four local relation families hold as exact rational matrices at
    levels <= 3, and the circle/curl normalizations agree diagrammatically
    and in the bimodule model."""
    assert set(bm.LOCAL_RELATIONS) == \
        {'up-double', 'braid', 'mixed-double', 'circle-curl'}
    entries = []
    for relation in bm.LOCAL_RELATIONS:
        for level in range(4):
            entries.extend(bm.verify_local_relation(relation, level,
                                                    max_level=3))
    failures = [e for e in entries if not e['pass']]
    assert entries and not failures, failures
    curl_checks = {e['check'] for e in entries
                   if e['relation'] == 'circle-curl'}
    assert {'ccw-circle', 'left-curl', 'left-curl-mirror'} <= curl_checks

    # the same normalizations, evaluated purely diagrammatically
    assert dg.evaluate_closed(_mor('sig:; cup+1; cap+1')) == Fraction(1)
    assert dg.simplify(_mor('sig:U; cup+1; x2; cap+1')).is_zero()
    assert dg.simplify(_mor('sig:U; cup+2; x1; cap+1')).is_zero()


def test_criterion_10_k0_decomposition_and_mackey():
    """Class-level tensor decompositions of the diagrammatic generators hold
    for 1 <= m, n <= 4, and the two-sided decomposition of restricted
    induction is an explicit isomorphism for k <= 4, with dimension count
    (k+1)! = k*k! + k!."""
    for m in range(1, 5):
        for n in range(1, 5):
            report = dg.verify_k0_relations(m, n)
            failures = [e for e in report if not e['pass']]
            assert report and not failures, (m, n, failures)

    for k in range(1, 5):
        report = bm.mackey_check(k)
        failures = [e for e in report if not e['pass']]
        assert report and not failures, (k, failures)
        assert math.factorial(k + 1) == \
            k * math.factorial(k) + math.factorial(k)
