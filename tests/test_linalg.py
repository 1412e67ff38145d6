"""Tests for the exact linear-algebra kernel against a Fraction oracle, and
for the memo registry."""

import functools
import importlib
import math
import pkgutil
import random

from decimal import Decimal
from fractions import Fraction

import pytest

import symcat
import symcat.bimodel as bm
import symcat.heisenberg as hs
import symcat.nilcoxeter as nx
import symcat.symfunc as sf
import symcat.weyl as wy
from symcat.bimodel import BimoduleElem, GroupAlgElem, ga_unit, path_from_signature, \
    render_groupalg, tensor_basis
from symcat.diagcat import Morphism, parse_diagram, render_morphism
from symcat.errors import FlavorMismatch, LatticeMismatch, NonIntegralResult, \
    RankMismatch, SignatureMismatch
from symcat.heisenberg import HeisNormal, heis_e, render_heis
from symcat.linalg import MEMOS, LinComb, common_denominator, matrix_rank, scalar
from symcat.symfunc import SymFunc, render
from symcat.weyl import DIVIDED_POWERS, MONOMIALS, PolyVector, WeylElement, render_weyl

from conftest import fresh_walk


def fraction_rank(rows):
    """Oracle: Gauss-Jordan elimination over Fraction, kept independent of linalg."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_entry(rng, rational):
    num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 5)) if rational else num


def random_matrix(rng, nrows, ncols, rational, zero_share=0.4):
    return [[0 if rng.random() < zero_share else random_entry(rng, rational)
             for _ in range(ncols)] for _ in range(nrows)]


def low_rank_matrix(rng, nrows, ncols, inner, rational):
    """A product of nrows x inner and inner x ncols factors: rank <= inner."""
    left = random_matrix(rng, nrows, inner, rational, 0.2)
    right = random_matrix(rng, inner, ncols, rational, 0.2)
    return [[sum((a * right[k][j] for k, a in enumerate(row)), 0) for j in range(ncols)]
            for row in left]


def test_rank_edge_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0
    assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert matrix_rank([[Fraction(0)] * 4] * 3) == 0
    assert matrix_rank([[0, 0, 5]]) == 1
    assert matrix_rank([[-3]]) == 1
    assert matrix_rank([[1, 2], [2, 4], [0, 1]]) == 2


def test_rank_matches_fraction_oracle():
    rng = random.Random(20261018)
    for trial in range(300):
        rational = trial % 2 == 1
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 3 == 0:
            inner = rng.randint(0, min(nrows, ncols))
            rows = low_rank_matrix(rng, nrows, ncols, inner, rational)
            assert matrix_rank(rows) <= inner
        else:
            rows = random_matrix(rng, nrows, ncols, rational)
        before = [list(r) for r in rows]
        assert matrix_rank(rows) == fraction_rank(rows), rows
        assert rows == before  # the input is left alone


def test_rank_tall_wide_and_negative():
    rng = random.Random(7)
    for nrows, ncols in ((12, 3), (3, 12), (9, 9), (1, 10), (10, 1)):
        for rational in (False, True):
            rows = [[-abs(random_entry(rng, rational)) for _ in range(ncols)]
                    for _ in range(nrows)]
            assert matrix_rank(rows) == fraction_rank(rows)
            # duplicated and negated rows add nothing to the rank
            doubled = rows + [[-x for x in row] for row in rows]
            assert matrix_rank(doubled) == fraction_rank(rows)


def test_rank_with_large_entries():
    # Bareiss keeps every intermediate an exact minor; no overflow or rounding
    rng = random.Random(11)
    rows = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(6)] for _ in range(6)]
    rows.append([a + 3 * b for a, b in zip(rows[0], rows[1])])
    assert matrix_rank(rows) == fraction_rank(rows) == 6


def test_common_denominator():
    rng = random.Random(3)
    assert common_denominator([]) == ([], 1)
    for _ in range(50):
        values = [random_entry(rng, rng.random() < 0.5) for _ in range(rng.randint(1, 6))]
        nums, d = common_denominator(values)
        assert d == math.lcm(*(Fraction(v).denominator for v in values))
        assert all(type(n) is int for n in nums)
        assert [Fraction(n, d) for n in nums] == values


def test_scalar_normalises():
    assert type(scalar(Fraction(4, 2))) is int and scalar(Fraction(4, 2)) == 2
    assert scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert type(scalar(7)) is int
    assert type(scalar(True)) is int and scalar(True) == 1


def test_scalar_refuses_everything_but_int_and_fraction():
    for bad in ('3', ' 1/2 ', Decimal('1.5'), Decimal(2), 1.0, 1j, None):
        with pytest.raises(TypeError):
            scalar(bad)
    with pytest.raises(TypeError):
        SymFunc('m', {(1,): '3'})
    with pytest.raises(TypeError):
        GroupAlgElem(2, {(1, 2): ' 1/2 '})
    with pytest.raises(TypeError):
        Decimal(2) * heis_e((1,))
    assert SymFunc('m', {(1,): True}) == SymFunc('m', {(1,): 1})


def test_bimodule_elem_checks_its_labels():
    path = path_from_signature('UU', 1)  # slots of ranks 3, 2 and 1
    good = tensor_basis(path)[0]
    for bad in (good[:-1], good + ((1,),), ((1, 2),), ((1, 2), good[1], good[2]),
                (good[0], (1, 1), good[2]), (good[0], good[1], (1, 2))):
        with pytest.raises(ValueError):
            BimoduleElem(path, {bad: 1})
    assert not BimoduleElem(path, {good: 1}).is_zero()


def test_hom_space_dimension_with_rational_actions():
    # scaling both actions by the same nonzero rational keeps every Hom space
    for n in range(1, 4):
        dim = math.factorial(n)
        mats = nx.regular_action_matrices(n)
        half = [[[Fraction(x, 2) for x in row] for row in mat] for mat in mats]
        assert nx.hom_space_dimension(half, dim, half, dim) == \
            nx.hom_space_dimension(mats, dim, mats, dim)


def test_rows_may_be_iterators():
    rows = [[1, 2], [2, 4], [0, Fraction(1, 2)]]
    assert matrix_rank(iter(row) for row in rows) == 2
    assert common_denominator(x for x in (Fraction(1, 2), 1)) == ([1, 2], 2)


##########################################
# LinComb: the shared linear-combination #
##########################################

_UU = path_from_signature('UU', 1)
_DIAGRAMS = [parse_diagram('sig:UU; x1'), parse_diagram('sig:UU')]

# class, public constructor arguments, arguments with a bad label (or None), error
LINCOMB_CASES = [
    (SymFunc, ('s', {(2, 1): 3, (1,): -1}), ('s', {(1, 2): 1}), ValueError),
    (WeylElement, ({(2, 1): 3, (0, 0): -1},), ({(1, -1): 1},), ValueError),
    (PolyVector, (MONOMIALS, {0: 2, 3: -1}), ('Q', {0: 1}), ValueError),
    (HeisNormal, ({((2, 1), (1,)): 2, ((), ()): -1},), ({((1, 2), ()): 1},), ValueError),
    (nx.NilcoxElem, (3, {(2, 3, 1): 1, (1, 2, 3): -2}), (3, {(2, 1): 1}), ValueError),
    (nx.KVector, (nx.G_SIMPLES, {2: 1, 0: -3}), ('Z', {1: 1}), ValueError),
    (GroupAlgElem, (3, {(2, 1, 3): Fraction(1, 2), (1, 2, 3): 2}), (3, {(1, 2): 1}),
     ValueError),
    (BimoduleElem, (_UU, dict(zip(tensor_basis(_UU), (1, Fraction(-2, 3), 5)))),
     (_UU, {((1, 2),): 1}), ValueError),
    (Morphism, ('UU', 'UU', {_DIAGRAMS[0]: 1, _DIAGRAMS[1]: Fraction(1, 2)}),
     ('UU', 'DU', {_DIAGRAMS[0]: 1}), SignatureMismatch),
]


@pytest.mark.parametrize('cls, args, bad, error', LINCOMB_CASES,
                         ids=[case[0].__name__ for case in LINCOMB_CASES])
def test_lincomb_laws(cls, args, bad, error):
    x = cls(*args)
    zero = cls(*args[:-1], {})
    assert isinstance(x, LinComb) and not x.is_zero() and zero.is_zero()
    for name in ('coeffs',) + cls._TAGS:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    assert (x + (-x)).is_zero() and (0 * x).is_zero()
    assert x - x == zero and x != zero
    assert x + x == 2 * x and x + zero == x
    assert cls._new(*args) == x
    if bad is not None:
        with pytest.raises(error):
            cls(*bad)


@pytest.mark.parametrize('make', [
    lambda: WeylElement({(True, 0): 1}),
    lambda: WeylElement({(0, False): 1}),
    lambda: PolyVector(MONOMIALS, {True: 1}),
    lambda: nx.KVector(nx.G_SIMPLES, {True: 1}),
    lambda: nx.NilcoxElem(1, {(True,): 1}),
    lambda: nx.NilcoxElem(2, {(1, 1): 1}),
    lambda: GroupAlgElem(1, {(True,): 1}),
    lambda: GroupAlgElem(2, {(2, 2): 1}),
], ids=['weyl-x', 'weyl-d', 'polyvector', 'kvector', 'nilcox-bool', 'nilcox-repeat',
        'groupalg-bool', 'groupalg-repeat'])
def test_labels_must_be_int_indices_or_permutations(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize('a, b, error', [
    (PolyVector(MONOMIALS, {1: 1}), PolyVector(DIVIDED_POWERS, {1: 1}), LatticeMismatch),
    (nx.nc_unit(2), nx.nc_unit(3), RankMismatch),
    (nx.simple_class(1), nx.projective_class(1), FlavorMismatch),
    (ga_unit(2), ga_unit(3), RankMismatch),
    (BimoduleElem(_UU, {}), BimoduleElem(path_from_signature('UU', 2), {}), ValueError),
    (Morphism.from_diagram(_DIAGRAMS[1]), Morphism('DU', 'DU', {}), SignatureMismatch),
], ids=['PolyVector', 'NilcoxElem', 'KVector', 'GroupAlgElem', 'BimoduleElem', 'Morphism'])
def test_combining_across_spaces_raises_the_typed_error(a, b, error):
    for op in (lambda: a + b, lambda: a - b):
        with pytest.raises(error):
            op()


def test_integer_spaces_refuse_non_integral_coefficients():
    with pytest.raises(NonIntegralResult):
        Fraction(1, 2) * WeylElement({(1, 0): 3})
    with pytest.raises(NonIntegralResult):
        Fraction(5, 2) * nx.simple_class(3)
    with pytest.raises(NonIntegralResult):
        Fraction(1, 2) * heis_e((2,))
    with pytest.raises(NonIntegralResult):
        Fraction(1, 2) * nx.nc_unit(2)
    # a float is refused before the integer policy sees it
    with pytest.raises(TypeError):
        WeylElement({(1, 0): 2.7})
    # integral results of rational scalars stay allowed
    assert Fraction(1, 2) * WeylElement({(1, 0): 4}) == WeylElement({(1, 0): 2})
    assert type((Fraction(4, 2) * nx.nc_unit(2)).coeffs[(1, 2)]) is int


def test_floats_are_refused():
    circle = parse_diagram('sig:; cup+1; cap+1')
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        0.1 * ga_unit(2)
    with pytest.raises(TypeError):
        Morphism.from_diagram(circle, 0.5)
    with pytest.raises(TypeError):
        0.5 * Morphism.from_diagram(circle)
    with pytest.raises(TypeError):
        SymFunc('p', {(1,): 0.5})


@pytest.mark.parametrize('a, b', [
    (SymFunc('m', {(1,): 1}), 1),
    (WeylElement({(1, 0): 1}), 1),
    (nx.nc_unit(2), nx.simple_class(1)),
    (heis_e((2,)), WeylElement({(1, 0): 1})),
    (ga_unit(2), nx.nc_unit(2)),
    (Morphism.from_diagram(_DIAGRAMS[1]), ga_unit(2)),
], ids=['symfunc', 'weyl', 'nilcoxeter', 'heisenberg', 'bimodel', 'diagcat'])
def test_mixed_type_arithmetic_is_a_type_error(a, b):
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(TypeError, match='unsupported operand'):
            op()


#########################
# the signed-sum format #
#########################

def _morphism(domain, terms):
    return Morphism(domain, domain, {parse_diagram(text): c for text, c in terms.items()})


@pytest.mark.parametrize('renderer, element, text', [
    (render, SymFunc('s', {}), '0'),
    (render, SymFunc('s', {(2,): -1, (1, 1): 1}), '-s[2] + s[1,1]'),
    (render, SymFunc('m', {(2,): 1, (1, 1): -3}), 'm[2] - 3 m[1,1]'),
    (render, SymFunc('p', {(2,): Fraction(-1, 2), (1, 1): Fraction(3, 2)}),
     '-1/2 p[2] + 3/2 p[1,1]'),
    (render_weyl, WeylElement({}), '0'),
    (render_weyl, WeylElement({(1, 0): -1, (0, 1): 2, (0, 0): 1}), '-x^1 + 2 d^1 + d^0'),
    (render_weyl, WeylElement({(2, 1): 3, (0, 0): -1}), '3 x^2 d^1 - d^0'),
    (render_heis, HeisNormal({}), '0'),
    (render_heis, HeisNormal({((2, 1), ()): -1, ((1,), (1,)): 2, ((), ()): 1}),
     '-e[2,1] + 2 e[1] h*[1] + 1'),
    (render_heis, HeisNormal({((), (1,)): 1, ((), ()): -3}), 'h*[1] - 3'),
    (render_heis, HeisNormal({((), ()): -1}), '-1'),
    (nx.render_nilcox, nx.NilcoxElem(3, {}), '0'),
    (nx.render_nilcox, nx.NilcoxElem(3, {(2, 1, 3): -1, (1, 2, 3): 1, (2, 3, 1): -2}),
     'u[] - u[1] - 2 u[1,2]'),
    (render_groupalg, GroupAlgElem(2, {}), '0'),
    (render_groupalg, GroupAlgElem(2, {(1, 2): -1, (2, 1): 1}), '-(1,2) + (2,1)'),
    (render_groupalg,
     GroupAlgElem(3, {(1, 2, 3): Fraction(1, 6), (2, 1, 3): Fraction(-1, 6), (3, 2, 1): 2}),
     '1/6 (1,2,3) - 1/6 (2,1,3) + 2 (3,2,1)'),
    (render_morphism, Morphism('UU', 'UU', {}), '0'),
    (render_morphism, _morphism('UU', {'sig:UU; x1': -1, 'sig:UU': 1}),
     '[sig:UU] - [sig:UU; x1]'),
    (render_morphism, _morphism('DU', {'sig:DU': Fraction(1, 2), 'sig:DU; cap+1; cup+1': -3}),
     '1/2 [sig:DU] - 3 [sig:DU; cap+1; cup+1]'),
])
def test_renderers_share_one_signed_sum_format(renderer, element, text):
    assert renderer(element) == text


##########################
# memo registry          #
##########################

def _module_memos():
    """'module.name' of every module attribute of the package that has
    cache_clear (classes aside), by the object."""
    modules = [importlib.import_module(f'symcat.{info.name}')
               for info in pkgutil.iter_modules(symcat.__path__)]
    return {obj: f'{mod.__name__}.{name}' for mod in modules for name, obj in vars(mod).items()
            if hasattr(obj, 'cache_clear') and not isinstance(obj, type)}


def test_every_module_memo_is_registered_and_bounded():
    names = _module_memos()
    assert sorted(names[m] for m in set(names) - set(MEMOS)) == []
    assert sorted(names[m] for m in MEMOS if m.cache_info().maxsize is None) == []
    assert set(MEMOS) <= set(names) and set(MEMOS.values()) == {'kernel', 'oracle', 'shared'}
    # memo returns the lru_cache wrapper itself: no Python frame per call
    assert all(type(m) is functools._lru_cache_wrapper for m in MEMOS if m is not bm._slice_table)


_F, _G = sf.parse_symfunc('s[2,1] - 2 e[3] + h[2,1]'), sf.parse_symfunc('p[2,1] + m[1,1,1]')
_DIAGRAMS = [Morphism.from_diagram(parse_diagram(text))
             for text in ('sig:UUU; x1; x2; x1', 'sig:DU; cap+1', 'sig:; cup+1')]


def _polynomial_oracle():
    P, Q = sf.monomial_expand(_F, 6), sf.monomial_expand(_G, 6)
    return sf.poly_mult(P, Q), sf.dominant_product(P, Q, (6,))


@pytest.mark.parametrize('oracle', [
    _polynomial_oracle,
    lambda: bm.induced_character_decomposition((2, 1), (2, 1)),
    lambda: hs.heis_normalize_single_step(hs.parse_heisword('h2* h1* e1 e2 h1* e3')),
    lambda: wy.weyl_multiply_single_step(wy.parse_weyl('3 x^2 d^3 - d^1'),
                                         wy.parse_weyl('x^3 d^1 + 2 x^1')),
    lambda: nx.nc_word_eval((1, 2, 1, 3, 2, 1), 4),
    lambda: [fresh_walk(m, 2) for m in _DIAGRAMS],
], ids=['polynomial', 'character', 'heis-single-step', 'weyl-single-step', 'nc-word',
        'dense-walk'])
def test_oracles_read_no_kernel_memo(fresh_memos, oracle):
    cleared = {memo: memo.cache_info() for memo in MEMOS}
    oracle()
    names = _module_memos()
    assert [names[memo] for memo, layer in MEMOS.items()
            if layer == 'kernel' and memo.cache_info() != cleared[memo]] == []
