"""Tests for nilcoxeter algebras, the bimodule decomposition, and K-theory."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcat.nilcoxeter as nx
import symcat.weyl as wy
from symcat.combinatorics import (
    all_perms,
    coset_decompose,
    coset_rep,
    perm_extend,
    perm_length,
    perm_mult,
    reduced_word,
)
from symcat.errors import (
    BoundExceeded,
    FlavorMismatch,
    NonIntegralResult,
    ParseError,
    RankMismatch,
    VerificationFailure,
)


def gen(i, n):
    return nx.nc_generator(i, n)


def word_product(word, n):
    out = nx.nc_unit(n)
    for i in word:
        out = nx.nc_product(out, gen(i, n))
    return out


def test_generator_squares_to_zero():
    for n in range(2, 6):
        for i in range(1, n):
            assert nx.nc_product(gen(i, n), gen(i, n)).is_zero()


def test_length_additive_product():
    assert nx.nc_product(gen(1, 3), gen(2, 3)) == nx.NilcoxElem(3, {(2, 3, 1): 1})
    # s_2 s_1 has one-line form (3, 1, 2)
    assert nx.nc_product(gen(2, 3), gen(1, 3)) == nx.NilcoxElem(3, {(3, 1, 2): 1})


def test_braid_and_distant_relations():
    for n in range(3, 7):
        for i in range(1, n - 1):
            lhs = word_product((i, i + 1, i), n)
            rhs = word_product((i + 1, i, i + 1), n)
            assert lhs == rhs
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) >= 2:
                    assert word_product((i, j), n) == word_product((j, i), n)


def test_long_products_vanish():
    # any product of more than n(n-1)/2 generators is zero
    for n in (3, 4):
        top = n * (n - 1) // 2
        import itertools
        for word in itertools.product(range(1, n), repeat=top + 1):
            assert word_product(word, n).is_zero()


def test_product_matches_rewriting_oracle():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(2, 5)
        word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 7)))
        assert word_product(word, n) == nx.nc_word_eval(word, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_oracle_agreement_random(n, data):
    word = tuple(data.draw(st.lists(st.integers(1, n - 1), max_size=6)))
    assert word_product(word, n) == nx.nc_word_eval(word, n)


def test_product_rank_mismatch():
    with pytest.raises(RankMismatch):
        nx.nc_product(gen(1, 3), gen(1, 4))


def test_unit_and_associativity():
    rng = random.Random(3)
    n = 4
    elems = []
    for _ in range(3):
        coeffs = {}
        for _ in range(3):
            s = tuple(rng.sample(range(1, n + 1), n))
            coeffs[s] = rng.randint(-4, 4)
        elems.append(nx.NilcoxElem(n, coeffs))
    a, b, c = elems
    one = nx.nc_unit(n)
    assert nx.nc_product(one, a) == a
    assert nx.nc_product(a, one) == a
    assert nx.nc_product(nx.nc_product(a, b), c) == nx.nc_product(a, nx.nc_product(b, c))


def test_x_right_basis_small():
    assert [nx.render_nilcox(b) for b in nx.x_right_basis(0)] == ['u[]']
    assert [nx.render_nilcox(b) for b in nx.x_right_basis(2)] == \
        ['u[]', 'u[2]', 'u[1,2]']
    for n in range(6):
        assert len(nx.x_right_basis(n)) == n + 1


def test_x_right_basis_unique_factorization():
    # every u_sigma in N_{n+1} is (basis element) * u_{sigma'} exactly once
    for n in range(6):
        m = n + 1
        seen = set()
        for sigma in all_perms(m):
            i, rest = coset_decompose(sigma)
            assert (i, rest) not in seen
            seen.add((i, rest))
            left = nx.NilcoxElem(m, {coset_rep(i, m): 1})
            right = nx.NilcoxElem(m, {perm_extend(rest, m): 1})
            assert nx.nc_product(left, right) == nx.NilcoxElem(m, {sigma: 1})
        assert len(seen) == math.factorial(m)


def test_bimodule_iso_passes():
    for n in range(1, 6):
        report = nx.verify_bimodule_iso(n)
        assert all(entry['pass'] for entry in report)
        names = {entry['check'] for entry in report}
        assert 'images-span' in names and 'm2-left-linear' in names


def test_bimodule_iso_m1_image_criterion():
    report = nx.verify_bimodule_iso(3)
    entry = next(e for e in report if e['check'] == 'm1-image-criterion')
    assert entry['pass']


def test_bimodule_iso_dimension_identity():
    # 1! + 1*1! = 2!, 3! + 3*3! = 4!
    for n in (1, 3):
        report = nx.verify_bimodule_iso(n)
        entry = next(e for e in report if e['check'] == 'images-span')
        assert entry['pass']
    assert math.factorial(1) + 1 * math.factorial(1) == math.factorial(2)
    assert math.factorial(3) + 3 * math.factorial(3) == math.factorial(4)


def test_bimodule_iso_past_the_ceiling(monkeypatch):
    # the ceiling guards the CLI, not the cost: n = 6 passes in well under a second
    monkeypatch.setattr(nx, 'MAX_RANK', 6)
    report = nx.verify_bimodule_iso(6)
    assert len(report) == 9 and all(entry['pass'] for entry in report)


def test_bimodule_iso_bound():
    with pytest.raises(BoundExceeded):
        nx.verify_bimodule_iso(6)
    with pytest.raises(BoundExceeded):
        nx.verify_bimodule_iso(7)
    with pytest.raises(BoundExceeded):
        nx.verify_bimodule_iso(0)


def test_basis_product_rule_matches_word_rewriting():
    # every ordered pair in S_1..S_4: _times against the string-rewriting oracle
    for n in range(1, 5):
        for s in all_perms(n):
            for t in all_perms(n):
                expect = nx.nc_word_eval(reduced_word(s) + reduced_word(t), n)
                st = nx._times(s, t)
                assert expect == (nx.NilcoxElem(n, {}) if st is None
                                  else nx.NilcoxElem(n, {st: 1}))


def test_ind_multiplicity_rejects_a_wrong_basis_length(monkeypatch):
    # a free basis of length 2 gives dim Ind N_2 = 4, not a multiple of 3! = 6
    monkeypatch.setattr(nx, 'x_right_basis', lambda n: [nx.nc_unit(n + 1)] * 2)
    with pytest.raises(ArithmeticError):
        nx.ind_K(nx.projective_class(2))


def test_ind_res_examples():
    assert nx.ind_K(nx.simple_class(2)) == nx.KVector(nx.G_SIMPLES, {3: 3})
    assert nx.res_K(nx.simple_class(0)).is_zero()
    assert nx.res_K(nx.projective_class(3)) == nx.KVector(nx.K_PROJECTIVES, {2: 3})
    assert nx.ind_K(nx.projective_class(0)) == nx.projective_class(1)
    assert nx.res_K(nx.simple_class(4)) == nx.simple_class(3)


def test_kvector_repr_is_a_signed_sum():
    assert repr(nx.KVector(nx.G_SIMPLES, {0: 1, 1: -2})) == \
        "KVector('G_simples', '[L_0] - 2 [L_1]')"
    assert repr(nx.KVector(nx.K_PROJECTIVES, {2: -1, 3: 3})) == \
        "KVector('K_projectives', '-[N_2] + 3 [N_3]')"
    assert repr(nx.KVector(nx.G_SIMPLES, {})) == "KVector('G_simples', 0)"


def test_k_pairing_orthonormal():
    assert nx.k_pairing(nx.projective_class(2), nx.simple_class(2)) == 1
    assert nx.k_pairing(nx.projective_class(2), nx.simple_class(3)) == 0
    with pytest.raises(FlavorMismatch):
        nx.k_pairing(nx.simple_class(2), nx.simple_class(2))
    with pytest.raises(FlavorMismatch):
        nx.k_pairing(nx.projective_class(2), nx.projective_class(2))


def test_hom_solver_oracle():
    # dim Hom(N_n, L_n) from explicit action matrices agrees with the pairing
    for n in range(1, 5):
        dim = nx.hom_space_dimension(
            nx.regular_action_matrices(n), math.factorial(n),
            nx.simple_action_matrices(n), 1)
        assert dim == nx.k_pairing(nx.projective_class(n), nx.simple_class(n)) == 1


def test_hom_solver_regular_to_regular():
    # Hom(N_n, N_n) as left modules is n!-dimensional (right multiplications)
    for n in (2, 3):
        dim = math.factorial(n)
        mats = nx.regular_action_matrices(n)
        assert nx.hom_space_dimension(mats, dim, mats, dim) == dim


def test_phi_maps():
    assert nx.phi_G(nx.simple_class(3)) == wy.PolyVector(wy.DIVIDED_POWERS, {3: 1})
    assert nx.phi_K(nx.projective_class(2)) == wy.PolyVector(wy.MONOMIALS, {2: 1})
    assert nx.phi_G(nx.KVector(nx.G_SIMPLES, {})).is_zero()
    with pytest.raises(FlavorMismatch):
        nx.phi_G(nx.projective_class(1))
    with pytest.raises(FlavorMismatch):
        nx.phi_K(nx.simple_class(1))


def test_pairing_intertwining():
    for m in range(9):
        for n in range(9):
            a = nx.projective_class(m)
            b = nx.simple_class(n)
            assert nx.k_pairing(a, b) == wy.weyl_pairing(nx.phi_K(a), nx.phi_G(b))


def test_weyl_squares_report():
    report = nx.verify_weyl_squares(10)
    assert all(entry['pass'] for entry in report)
    assert len(report) == 7


def test_weyl_relation_on_classes():
    for flavor in (nx.G_SIMPLES, nx.K_PROJECTIVES):
        for n in range(11):
            v = nx.KVector(flavor, {n: 1})
            assert nx.res_K(nx.ind_K(v)) == nx.ind_K(nx.res_K(v)) + v


def test_adjointness():
    for m in range(9):
        for n in range(9):
            lhs = nx.k_pairing(nx.ind_K(nx.projective_class(m)), nx.simple_class(n))
            rhs = nx.k_pairing(nx.projective_class(m), nx.res_K(nx.simple_class(n)))
            assert lhs == rhs


def test_literal_round_trip():
    e = nx.parse_nilcox('u[1,2] + 3 u[]', 3)
    assert e == nx.NilcoxElem(3, {(2, 3, 1): 1}) + 3 * nx.nc_unit(3)
    assert nx.parse_nilcox(nx.render_nilcox(e), 3) == e
    assert nx.render_nilcox(nx.parse_nilcox('0', 4)) == '0'
    assert nx.parse_nilcox('-u[1] + u[1]', 2).is_zero()


def test_literal_rejects_bad_input():
    with pytest.raises(ParseError):
        nx.parse_nilcox('u[1,1]', 3)  # not reduced
    with pytest.raises(ParseError):
        nx.parse_nilcox('u[5]', 3)  # generator out of range
    with pytest.raises(ParseError):
        nx.parse_nilcox('u[1] + + u[2]', 3)
    with pytest.raises(ParseError):
        nx.parse_nilcox('', 3)


def test_report_json():
    report = nx.verify_bimodule_iso(2)
    text = nx.report_json(report)
    import json
    back = json.loads(text)
    assert back == report
    assert all(set(e) == {'check', 'n', 'pass', 'detail'} for e in back)


def test_non_integral_message_ignores_insertion_order():
    # the message names the first non-integral coefficient in display order,
    # whichever order the terms were inserted in
    cases = [(lambda c: nx.NilcoxElem(2, c), {(2, 1): Fraction(1, 2), (1, 2): Fraction(1, 3)},
              'coefficient 1/3 of (1, 2) is not an integer in NilcoxElem'),
             (lambda c: nx.KVector(nx.G_SIMPLES, c), {3: Fraction(1, 2), 1: Fraction(1, 3)},
              'coefficient 1/3 of 1 is not an integer in KVector')]
    for make, coeffs, message in cases:
        for items in (list(coeffs.items()), list(coeffs.items())[::-1]):
            with pytest.raises(NonIntegralResult) as err:
                make(dict(items))
            assert str(err.value) == message
