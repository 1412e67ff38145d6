"""Tests for the Weyl algebra: normal ordering, lattice actions, pairing."""

import itertools
import random

import pytest

import symcat.weyl as wy
from symcat.errors import LatticeMismatch, ParseError

D = wy.WeylElement({(0, 1): 1})
X = wy.WeylElement({(1, 0): 1})


def mono(lattice, n, c=1):
    return wy.PolyVector(lattice, {n: c})


def test_defining_relation():
    assert wy.weyl_multiply(D, X) == wy.WeylElement({(1, 1): 1, (0, 0): 1})
    assert wy.weyl_multiply(X, D) == wy.WeylElement({(1, 1): 1})


def test_d_squared_x():
    got = wy.weyl_multiply(wy.weyl_multiply(D, D), X)
    assert got == wy.WeylElement({(1, 2): 1, (0, 1): 2})
    # and the same identity holds as operators on x^n
    for n in range(11):
        v = mono(wy.MONOMIALS, n)
        lhs = wy.weyl_apply(got, v)
        rhs = wy.weyl_apply(D, wy.weyl_apply(D, wy.weyl_apply(X, v)))
        assert lhs == rhs


def test_unit_and_associativity():
    one = wy.WeylElement({(0, 0): 1})
    u = wy.parse_weyl('2 x^1 d^2 - d^1')
    assert wy.weyl_multiply(one, u) == u
    assert wy.weyl_multiply(u, one) == u
    v = wy.parse_weyl('x^2 + 3 d^2')
    w = wy.parse_weyl('x^1 d^1')
    assert wy.weyl_multiply(wy.weyl_multiply(u, v), w) == \
        wy.weyl_multiply(u, wy.weyl_multiply(v, w))


def test_closed_form_matches_single_step_oracle():
    for a1, b1, a2, b2 in itertools.product(range(5), repeat=4):
        u, v = wy.WeylElement({(a1, b1): 1}), wy.WeylElement({(a2, b2): 1})
        assert wy.weyl_multiply(u, v) == wy.weyl_multiply_single_step(u, v)
    rng = random.Random(7)
    for _ in range(60):
        u = wy.WeylElement({(rng.randint(0, 4), rng.randint(0, 4)):
                            rng.randint(-5, 5) for _ in range(2)})
        v = wy.WeylElement({(rng.randint(0, 4), rng.randint(0, 4)):
                            rng.randint(-5, 5) for _ in range(2)})
        assert wy.weyl_multiply(u, v) == wy.weyl_multiply_single_step(u, v)


def test_multiplication_respects_action():
    rng = random.Random(11)
    for _ in range(25):
        u = wy.WeylElement({(rng.randint(0, 4), rng.randint(0, 4)):
                            rng.randint(-5, 5) for _ in range(2)})
        v = wy.WeylElement({(rng.randint(0, 4), rng.randint(0, 4)):
                            rng.randint(-5, 5) for _ in range(2)})
        uv = wy.weyl_multiply(u, v)
        for lattice in (wy.MONOMIALS, wy.DIVIDED_POWERS):
            for n in range(13):
                e_n = mono(lattice, n)
                assert wy.weyl_apply(uv, e_n) == \
                    wy.weyl_apply(u, wy.weyl_apply(v, e_n))


def test_action_pinned_examples():
    assert wy.weyl_apply(D, mono(wy.MONOMIALS, 3)) == mono(wy.MONOMIALS, 2, 3)
    assert wy.weyl_apply(D, mono(wy.DIVIDED_POWERS, 0)).is_zero()
    xd = wy.parse_weyl('x^1 d^1')
    for n in range(10):
        v = mono(wy.MONOMIALS, n)
        assert wy.weyl_apply(xd, v) == wy.PolyVector(wy.MONOMIALS, {n: n})


def test_divided_power_action():
    # x: r_n -> (n+1) r_{n+1}; d: r_n -> r_{n-1}
    for n in range(8):
        rn = mono(wy.DIVIDED_POWERS, n)
        assert wy.weyl_apply(X, rn) == mono(wy.DIVIDED_POWERS, n + 1, n + 1)
        if n:
            assert wy.weyl_apply(D, rn) == mono(wy.DIVIDED_POWERS, n - 1)


def test_pairing_pinned():
    assert wy.weyl_pairing(mono(wy.MONOMIALS, 2), mono(wy.DIVIDED_POWERS, 2)) == 1
    assert wy.weyl_pairing(mono(wy.MONOMIALS, 2), mono(wy.DIVIDED_POWERS, 3)) == 0


def test_pairing_lattice_check():
    with pytest.raises(LatticeMismatch):
        wy.weyl_pairing(mono(wy.DIVIDED_POWERS, 1), mono(wy.DIVIDED_POWERS, 1))
    with pytest.raises(LatticeMismatch):
        wy.weyl_pairing(mono(wy.MONOMIALS, 1), mono(wy.MONOMIALS, 1))


def test_pairing_adjointness():
    for n in range(11):
        for m in range(11):
            v = mono(wy.MONOMIALS, n)
            w = mono(wy.DIVIDED_POWERS, m)
            assert wy.weyl_pairing(wy.weyl_apply(X, v), w) == \
                wy.weyl_pairing(v, wy.weyl_apply(D, w))
            assert wy.weyl_pairing(wy.weyl_apply(D, v), w) == \
                wy.weyl_pairing(v, wy.weyl_apply(X, w))


def test_integrality_everywhere():
    rng = random.Random(3)
    for _ in range(20):
        u = wy.WeylElement({(rng.randint(0, 5), rng.randint(0, 5)):
                            rng.randint(-5, 5) for _ in range(3)})
        for lattice in (wy.MONOMIALS, wy.DIVIDED_POWERS):
            v = wy.PolyVector(lattice, {rng.randint(0, 9): rng.randint(-4, 4)
                                        for _ in range(3)})
            out = wy.weyl_apply(u, v)
            assert all(isinstance(c, int) for c in out.coeffs.values())


def test_literals_round_trip():
    for text in ['3 x^2 d^1 + d^0', 'x^3 - 2 x^1 d^2', 'd^4', '0']:
        assert wy.render_weyl(wy.parse_weyl(text)) == text
    for text in ['lattice:R [0,2]', 'lattice:Rprime [1,0,-3]', 'lattice:R []']:
        assert wy.render_polyvector(wy.parse_polyvector(text)) == text
    with pytest.raises(ParseError):
        wy.parse_weyl('x^')
    with pytest.raises(ParseError):
        wy.parse_polyvector('lattice:Q [1]')
