"""Tests for the Heisenberg algebra normal form, Fock action, and class operators."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcat.heisenberg as hs
import symcat.symfunc as sf
from symcat.combinatorics import partitions_of
from symcat.errors import NonIntegralResult, ParseError, VerificationFailure
from symcat.symfunc import SymFunc, hall_pairing, lr_coefficients, parse_symfunc, render


def word(text):
    return hs.parse_heisword(text)


def test_single_letters_normalize_to_themselves():
    assert hs.heis_normalize(word('e2')) == hs.heis_e((2,))
    assert hs.heis_normalize(word('h3*')) == hs.heis_hstar((3,))
    assert hs.heis_normalize(word('1')) == hs.heis_unit()


def test_defining_relation_smallest_case():
    got = hs.heis_normalize(word('h1* e1'))
    assert got == hs.heis_e((1,)) * hs.heis_hstar((1,)) + hs.heis_unit()


def test_index_zero_collapse():
    got = hs.heis_normalize(word('h2* e1'))
    assert got == hs.HeisNormal({((1,), (2,)): 1, ((), (1,)): 1})


def test_same_kind_letters_commute():
    assert hs.heis_normalize(word('e2 e3')) == hs.heis_normalize(word('e3 e2'))
    assert hs.heis_normalize(word('h2* h1*')) == hs.heis_normalize(word('h1* h2*'))


def test_interleaving_confluence():
    # shuffling commuting letters never changes the normal form
    rng = random.Random(23)
    for _ in range(40):
        letters = [('e' if rng.random() < 0.5 else 'h*', rng.randint(1, 4))
                   for _ in range(rng.randint(0, 6))]
        w1 = hs.HeisWord(letters)
        shuffled = list(letters)
        for _ in range(10):
            p = rng.randint(0, max(0, len(shuffled) - 2))
            if len(shuffled) >= 2 and shuffled[p][0] == shuffled[p + 1][0]:
                shuffled[p], shuffled[p + 1] = shuffled[p + 1], shuffled[p]
        w2 = hs.HeisWord(shuffled)
        assert hs.heis_normalize(w1) == hs.heis_normalize(w2)


def test_normalization_preserves_fock_action():
    rng = random.Random(5)
    inputs = [SymFunc('s', {lam: 1}) for d in range(5) for lam in partitions_of(d)]
    for _ in range(15):
        letters = [('e' if rng.random() < 0.5 else 'h*', rng.randint(1, 3))
                   for _ in range(rng.randint(0, 4))]
        while sum(n for kind, n in letters if kind == 'e') > 4:
            letters.pop()
        w = hs.HeisWord(letters)
        normal = hs.heis_normalize(w)
        for f in inputs:
            assert hs.fock_apply_word(w, f) == hs.fock_apply(normal, f)


LETTERS = [(kind, n) for kind in ('e', 'h*') for n in range(1, 5)]


def test_closed_form_matches_single_step_on_every_short_word():
    count = 0
    for length in range(5):
        for letters in itertools.product(LETTERS, repeat=length):
            w = hs.HeisWord(letters)
            assert hs.heis_normalize(w) == hs.heis_normalize_single_step(w), letters
            count += 1
    assert count == 1 + 8 + 8 ** 2 + 8 ** 3 + 8 ** 4


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), min_size=5, max_size=8))
def test_closed_form_matches_single_step_on_longer_words(letters):
    w = hs.HeisWord(letters)
    assert hs.heis_normalize(w) == hs.heis_normalize_single_step(w)


def test_closed_form_reaches_many_inversions():
    # k^2 starred/unstarred pairs, beyond single-step rewriting for k >= 5; on
    # index-1 letters the relation is d x = x d + 1, whose normal ordering is
    # d^k x^k = sum_j C(k, j)^2 j! x^(k-j) d^(k-j)
    for k in range(9):
        got = hs.heis_normalize(word(' '.join(['h1*'] * k + ['e1'] * k)))
        want = {((1,) * (k - j), (1,) * (k - j)): math.comb(k, j) ** 2 * math.factorial(j)
                for j in range(k + 1)}
        assert got.coeffs == want
    got = hs.heis_normalize(word(' '.join(['h3*'] * 5 + ['e3'] * 5)))
    assert len(got.coeffs) == 240 and got.coeffs[((3,) * 5, (3,) * 5)] == 1


def test_product_matches_single_step_on_concatenated_words():
    rng = random.Random(17)
    small = [lam for d in range(4) for lam in partitions_of(d)]
    for _ in range(30):
        a = hs.HeisNormal({(rng.choice(small), rng.choice(small)): rng.choice((1, -1, 2))
                           for _ in range(rng.randint(0, 2))})
        b = hs.HeisNormal({(rng.choice(small), rng.choice(small)): rng.choice((1, -1, 3))
                           for _ in range(rng.randint(0, 2))})
        want = hs.HeisNormal({})
        for (lam1, mu1), c1 in a.coeffs.items():
            for (lam2, mu2), c2 in b.coeffs.items():
                letters = [('e', n) for n in lam1] + [('h*', n) for n in mu1] \
                    + [('e', n) for n in lam2] + [('h*', n) for n in mu2]
                want = want + (c1 * c2) * hs.heis_normalize_single_step(hs.HeisWord(letters))
        assert hs.heis_product(a, b) == want


def test_letters_and_parts_must_be_ints():
    for bad in (True, 1.0, '1', 0):
        with pytest.raises(ValueError):
            hs.HeisWord([('e', bad)])
        with pytest.raises(ValueError):
            hs.HeisNormal({((bad,), ()): 1})
    with pytest.raises(ValueError):
        hs.HeisWord([('f', 1)])


def test_product_unit_and_examples():
    a = hs.heis_e((2, 1)) + 2 * hs.heis_hstar((3,))
    assert hs.heis_product(a, hs.heis_unit()) == a
    assert hs.heis_product(hs.heis_unit(), a) == a
    commutator = hs.heis_product(hs.heis_hstar((1,)), hs.heis_e((1,))) \
        - hs.heis_product(hs.heis_e((1,)), hs.heis_hstar((1,)))
    assert commutator == hs.heis_unit()


def test_h2star_e2_straightening():
    # one lemma application; cross-checked below on Fock space
    got = hs.heis_product(hs.heis_hstar((2,)), hs.heis_e((2,)))
    want = hs.heis_e((2,)) * hs.heis_hstar((2,)) \
        + hs.heis_e((1,)) * hs.heis_hstar((1,))
    assert got == want
    for d in range(7):
        for lam in partitions_of(d):
            s = SymFunc('s', {lam: 1})
            assert hs.fock_apply_word(word('h2* e2'), s) == hs.fock_apply(want, s)


def test_product_associative():
    rng = random.Random(11)
    def rand_elem():
        out = hs.HeisNormal({})
        for _ in range(2):
            lam = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))),
                               reverse=True))
            mu = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))),
                              reverse=True))
            out = out + rng.randint(-2, 2) * hs.HeisNormal({(lam, mu): 1})
        return out
    for _ in range(8):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert hs.heis_product(hs.heis_product(a, b), c) == \
            hs.heis_product(a, hs.heis_product(b, c))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(['e', 'h*']), st.integers(1, 4)),
                max_size=6))
def test_normalize_random_words_settle(letters):
    normal = hs.heis_normalize(hs.HeisWord(letters))
    # renormalizing any basis term of the result is a fixed point
    for (lam, mu), c in normal.coeffs.items():
        again = hs.heis_normalize(hs.HeisWord(
            tuple(('e', n) for n in lam) + tuple(('h*', n) for n in mu)))
        assert again == hs.HeisNormal({(lam, mu): 1})


def test_fock_apply_examples():
    one = parse_symfunc('m[]')
    assert hs.fock_apply(hs.heis_unit(), parse_symfunc('s[2,1]')) == parse_symfunc('s[2,1]')
    assert hs.fock_apply(hs.heis_hstar((1,)), parse_symfunc('s[1]')) == one
    assert hs.fock_apply(hs.heis_e((1,)), one) == parse_symfunc('e[1]')


def test_fock_apply_matches_letter_by_letter_action():
    # every basis operator e_lam h*_mu of bidegree <= (3,3) on every s_lam, |lam| <= 5
    small = [lam for d in range(4) for lam in partitions_of(d)]
    states = [SymFunc('s', {lam: 1}) for d in range(6) for lam in partitions_of(d)]
    for lam in small:
        for mu in small:
            op = hs.HeisNormal({(lam, mu): 1})
            w = hs.HeisWord(tuple(('e', n) for n in lam) + tuple(('h*', n) for n in mu))
            for f in states:
                got = hs.fock_apply(op, f)
                assert got.basis == 'm'
                assert got == hs.fock_apply_word(w, f), (lam, mu, f)


def test_fock_apply_schur_matches_letter_by_letter_action():
    # the strip moves against multiplication and adjoints, letter by letter:
    # every basis operator of bidegree <= (3,3) on every s_lam, |lam| <= 6,
    # and on states given in the other bases
    small = [lam for d in range(4) for lam in partitions_of(d)]
    states = [SymFunc('s', {lam: 1}) for d in range(7) for lam in partitions_of(d)]
    states += [parse_symfunc(text) for text in (
        'e[2,1] - 3 e[3]', 'h[2,2] + h[1]', 'p[3,1] - 2 p[2]', '2 m[2,1,1] - m[4] + m[]')]
    for lam in small:
        for mu in small:
            op = hs.HeisNormal({(lam, mu): 1})
            w = hs.HeisWord(tuple(('e', n) for n in lam) + tuple(('h*', n) for n in mu))
            for f in states:
                got = hs.fock_apply_schur(op, f)
                assert got.basis == 's'
                assert got == hs.fock_apply_word(w, f), (lam, mu, f)


def test_fock_apply_schur_on_linear_combinations():
    op = hs.HeisNormal({((2, 1), (1,)): 2, ((1,), ()): -1, ((), (2, 1)): 3, ((), ()): 1})
    f = parse_symfunc('s[3,1] - 2 s[2] + s[]')
    want = parse_symfunc('0')
    for (lam, mu), c in op.coeffs.items():
        w = hs.HeisWord(tuple(('e', n) for n in lam) + tuple(('h*', n) for n in mu))
        want = want + c * hs.fock_apply_word(w, f)
    assert hs.fock_apply_schur(op, f) == want
    assert hs.fock_apply(op, f) == want
    # a word read through its normal form acts as the word does
    for text, state in (('h2* e3 h1* e1', (4, 3, 2)), ('e1', (3, 3)), ('h1* h1*', (2, 1))):
        f = hs.specht_to_sym(state)
        assert hs.fock_apply_schur(hs.heis_normalize(word(text)), f) == \
            hs.fock_apply_word(word(text), f)


def test_e_raise_matches_the_polynomial_product():
    # m_lam e_n against the product of the two expanded polynomials, in
    # enough variables for every m_nu of the product to show
    for d in range(7):
        for lam in partitions_of(d):
            for n in range(1, 5):
                nvars = d + n
                want = sf.poly_mult(sf.monomial_expand(SymFunc('m', {lam: 1}), nvars),
                                    sf.monomial_expand(SymFunc('e', {(n,): 1}), nvars))
                got = sf.monomial_expand(SymFunc('m', dict(hs._e_raise(lam, n))), nvars)
                assert got == want, (lam, n)


_FOCK_OPERATORS = [hs.HeisNormal({(lam, mu): 1}) for lam, mu in itertools.product(
    [lam for d in range(4) for lam in partitions_of(d)], repeat=2)]
_FOCK_STATES = [SymFunc(basis, {lam: 1}) for basis in 'mehps'
                for d in range(8) for lam in partitions_of(d)]


def _first_fock_disagreement():
    # fock_apply (parts of m removed and raised) against fock_apply_schur
    # (Pieri strips on s), which share no kernel
    for op in _FOCK_OPERATORS:
        for f in _FOCK_STATES:
            got = hs.fock_apply(op, f)
            if got.basis != 'm' or got.coeffs != sf.convert(hs.fock_apply_schur(op, f), 'm').coeffs:
                return op, f
    return None


def test_fock_apply_matches_the_schur_action_in_every_basis():
    assert _first_fock_disagreement() is None


def test_fock_comparison_catches_a_wrong_e_raise_coefficient(monkeypatch):
    true_raise = hs._e_raise
    reads = []

    def corrupted(lam, n):
        out = true_raise(lam, n)
        if (lam, n) == ((2, 1), 1):  # m21 e1 = m31 + 2 m22 + 2 m211
            reads.append(lam)
            return tuple((nu, c + 1 if nu == (2, 1, 1) else c) for nu, c in out)
        return out

    monkeypatch.setattr(hs, '_e_raise', corrupted)
    assert _first_fock_disagreement() is not None
    assert reads, 'the corrupted entry was never read'


def test_fock_apply_rejects_a_state_not_integral_in_m():
    half = SymFunc('p', {(1, 1): Fraction(1, 2)})
    for op in (hs.heis_unit(), hs.heis_e((1,)), hs.heis_hstar((1,))):
        with pytest.raises(NonIntegralResult):
            hs.fock_apply(op, half)


def test_heis_relation_reports():
    for m, n in ((1, 1), (3, 2)):
        report = hs.verify_heis_relation(m, n, 6)
        assert all(entry['pass'] for entry in report)
    with pytest.raises(ValueError):
        hs.verify_heis_relation(1, 0, 4)
    with pytest.raises(ValueError):
        hs.verify_heis_relation(0, 1, 4)


def test_boson_relation():
    for m, n, scalar in ((1, 1, 1), (2, 3, 0), (2, 2, 2)):
        report = hs.verify_boson_relation(m, n, 6)
        assert all(entry['pass'] for entry in report)
        # spot-check the scalar on one input
        s = parse_symfunc('s[2,1]')
        p_m = SymFunc('p', {(m,): 1})
        p_n = SymFunc('p', {(n,): 1})
        from symcat.symfunc import dual_apply, multiply
        got = dual_apply(p_m, multiply(p_n, s)) - multiply(p_n, dual_apply(p_m, s))
        assert got == scalar * s


def test_specht_classes():
    assert hs.specht_to_sym([2, 1]).coeffs == {(2, 1): 1}
    with pytest.raises(ValueError, match='not a partition'):
        hs.specht_to_sym((1, 2))
    assert hs.specht_to_sym((1, 1, 1)) == parse_symfunc('e[3]')
    assert hs.specht_to_sym((3,)) == parse_symfunc('h[3]')
    assert hs.specht_to_sym(()) == parse_symfunc('m[]')
    assert render(hs.specht_to_sym((2, 1))) == 's[2,1]'


def test_specht_pairing_orthonormal():
    lams = [lam for d in range(5) for lam in partitions_of(d)]
    for lam in lams:
        for mu in lams:
            want = 1 if lam == mu else 0
            assert hall_pairing(hs.specht_to_sym(lam), hs.specht_to_sym(mu)) == want


def test_ind_res_class_examples():
    s1 = parse_symfunc('s[1]')
    assert hs.ind_class(s1, s1) == parse_symfunc('s[2] + s[1,1]')
    assert hs.res_class(s1, parse_symfunc('s[2]')) == s1
    assert hs.res_class(parse_symfunc('s[3]'), parse_symfunc('s[2]')).is_zero()


def test_ind_class_nonnegative_on_schur_inputs():
    lams = [lam for d in range(1, 5) for lam in partitions_of(d)]
    for lam in lams:
        for mu in lams:
            prod = hs.ind_class(SymFunc('s', {lam: 1}), SymFunc('s', {mu: 1}))
            from symcat.symfunc import convert
            assert all(c > 0 for c in convert(prod, 's').coeffs.values())


def test_fock_matches_lr_coefficients():
    # multiplying by the e_n class decomposes with the same multiplicities
    # as the column/row coefficient oracle
    for n in (1, 2, 3):
        for d in range(0, 7 - n):
            for lam in partitions_of(d):
                got = hs.fock_apply(hs.heis_e((n,)), hs.specht_to_sym(lam))
                from symcat.symfunc import convert
                got_s = convert(got, 's')
                want = lr_coefficients((1,) * n, lam)
                assert got_s.coeffs == {k: v for k, v in want.items() if v}


def test_weak_fock_reports():
    for m, n in ((1, 1), (2, 3)):
        report = hs.verify_weak_fock(m, n, 6)
        assert all(entry['pass'] for entry in report)


def test_weak_fock_spec_case_degree_eight():
    report = hs.verify_weak_fock(2, 3, 8)
    assert all(entry['pass'] for entry in report)


def test_faithfulness_spot_check():
    # distinct bidegree <= (4,4) basis elements act differently on |lambda| <= 8
    small = [lam for d in range(5) for lam in partitions_of(d)]
    inputs = [SymFunc('s', {lam: 1}) for d in range(9) for lam in partitions_of(d)]
    fingerprints = {}
    for lam in small:
        for mu in small:
            elem = hs.HeisNormal({(lam, mu): 1})
            fp = tuple(render(hs.fock_apply(elem, f)) for f in inputs)
            assert fp not in fingerprints, (lam, mu, fingerprints[fp])
            fingerprints[fp] = (lam, mu)
    assert len(fingerprints) == len(small) ** 2


_MISREADS = [
    (False, 'basis operators ((), (2,)) and ((), (1, 1)) act identically'),
    (True, 'basis operators ((2,), ()) and ((1, 1), ()) act identically'),
]


def _misread_part(monkeypatch, grow):
    # h_2* (grow False) or e_2 (grow True) applied as two steps of size 1
    true_pieri = hs._pieri

    def misread(coeffs, parts, grow_, vertical=False):
        if parts == (2,) and grow_ == grow:
            parts = (1, 1)
        return true_pieri(coeffs, parts, grow_, vertical)

    monkeypatch.setattr(hs, '_pieri', misread)


@pytest.mark.parametrize('grow, message', _MISREADS)
def test_faithfulness_case_catches_a_misread_part(monkeypatch, grow, message):
    # the messages are those of a sweep that applies each e_lam h_mu* whole
    from symcat import cases
    _misread_part(monkeypatch, grow)
    with pytest.raises(VerificationFailure) as info:
        cases.run_case('heisenberg/fock-faithful-spot', max_bidegree=4, max_state=8)
    assert str(info.value) == message


def test_faithfulness_case_settles_repeated_keys_exactly(monkeypatch):
    # with every weight 0 all 144 operators share one key, so each is told
    # apart from the earlier ones only by comparing their images exactly:
    # the verdict and the misread messages stay those of the default weights
    from symcat import cases
    monkeypatch.setattr(cases, '_weight', lambda nu: 0)
    bounds = {'max_bidegree': 4, 'max_state': 8}
    assert cases.run_case('heisenberg/fock-faithful-spot', **bounds) == \
        '144 basis operators of bidegree <= (4,4) are separated by states of size <= 8'
    true_pieri = hs._pieri
    for grow, message in _MISREADS:
        _misread_part(monkeypatch, grow)
        with pytest.raises(VerificationFailure) as info:
            cases.run_case('heisenberg/fock-faithful-spot', **bounds)
        assert str(info.value) == message
        monkeypatch.setattr(hs, '_pieri', true_pieri)


def test_word_literals():
    w = word('e3 h2* e1')
    assert w.letters == (('e', 3), ('h*', 2), ('e', 1))
    assert hs.render_heisword(w) == 'e3 h2* e1'
    assert hs.render_heisword(word('1')) == '1'
    with pytest.raises(ParseError):
        word('e3*')
    with pytest.raises(ParseError):
        word('h2')
    with pytest.raises(ParseError):
        word('e0')
    with pytest.raises(ParseError):
        word('x4')


def test_non_integral_message_ignores_insertion_order():
    # the message names the first non-integral coefficient in display order
    # (highest degree first), whichever order the terms were inserted in
    terms = [(((1,), ()), Fraction(1, 2)), (((2,), ()), Fraction(1, 3))]
    for order in (terms, terms[::-1]):
        with pytest.raises(NonIntegralResult) as err:
            hs.HeisNormal(dict(order))
        assert str(err.value) == \
            'coefficient 1/3 of ((2,), ()) is not an integer in HeisNormal'


def test_normal_form_json_round_trip():
    a = hs.heis_e((2, 1)) - 3 * hs.heis_hstar((1,)) + 2 * hs.heis_unit()
    assert hs.heis_from_json(hs.heis_to_json(a)) == a
    assert hs.heis_to_json(hs.HeisNormal({})) == '[]'


@pytest.mark.parametrize('text', [
    '[{"e_partition": [1], "coeff": 2}]',
    '[{"e_partition": [1], "hstar_partition": [], "coeff": "3"}]',
    '{"e_partition": [1], "hstar_partition": [], "coeff": 1}',
    '[{"e_partition": [1, 2], "hstar_partition": [], "coeff": 1}]',
    '[{"e_partition": [1], "hstar_partition": [], "coeff": 1.5}]',
    '[{"e_partition": [1]',
], ids=['missing-key', 'string-coeff', 'top-level-object', 'not-a-partition',
        'float-coeff', 'invalid-json'])
def test_normal_form_json_rejects_malformed_input(text):
    with pytest.raises(ParseError, match='bad HeisNormal JSON'):
        hs.heis_from_json(text)


def test_verification_failure_carries_report():
    # force a failure by checking a deliberately wrong relation through the
    # public machinery: n = 0 is rejected before any work
    with pytest.raises(ValueError):
        hs.verify_boson_relation(1, 1, -1)
