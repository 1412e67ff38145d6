"""Tests for the symmetric-function ring: bases, products, Hopf structure.

The polynomial expansion `monomial_expand` is the independent oracle here:
expected values below marked as oracle-derived were computed by expanding
into explicit polynomials first, then frozen.
"""

import ast
import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import symcat.symfunc as sf
from symcat import combinatorics as cb
from symcat.combinatorics import dominates, partition_key, partitions_of
from symcat.errors import InsufficientVariables, NonIntegralResult, ParseError
from symcat.linalg import clear_memos

M, E, H, P, S = 'm', 'e', 'h', 'p', 's'


def be(basis, lam):
    return sf.basis_element(basis, lam)


##########################
# conversions and bases  #
##########################

def test_convert_pinned_examples():
    assert sf.convert(be(E, (2,)), M) == be(M, (1, 1))
    assert sf.convert(be(H, (2,)), M) == be(M, (2,)) + be(M, (1, 1))
    assert sf.convert(be(S, (1, 1)), E) == be(E, (2,))
    # e_n = m_(1^n), h_n = sum over all partitions, p_n = m_(n)
    for n in range(1, 7):
        assert sf.convert(be(E, (n,)), M) == be(M, (1,) * n)
        assert sf.convert(be(P, (n,)), M) == be(M, (n,))
        hn = sf.convert(be(H, (n,)), M)
        assert hn.coeffs == {lam: 1 for lam in partitions_of(n)}


def test_convert_round_trip_all_integral_bases():
    for d in range(7):
        for lam in partitions_of(d):
            for b1 in (M, E, H, S):
                x = be(b1, lam)
                for b2 in (M, E, H, S):
                    assert sf.convert(sf.convert(x, b2), b1) == x


def test_convert_round_trip_powersum():
    for d in range(6):
        for lam in partitions_of(d):
            x = be(P, lam)
            for b2 in (M, E, H, S):
                assert sf.convert(sf.convert(x, b2), P) == x


def test_powersum_rational_only_there():
    half = sf.SymFunc(P, {(2,): Fraction(1, 2)})
    with pytest.raises(NonIntegralResult):
        sf.convert(half, M)
    with pytest.raises(NonIntegralResult):
        sf.SymFunc(M, {(1,): Fraction(1, 2)})
    # integral powersum combinations convert fine: p_2 = m_2 is in Sym
    assert sf.convert(be(P, (2,)), M) == be(M, (2,))


def _mixed_elements(basis, rng, count, coeffs=(1, -1, 2, -3)):
    """zero, two degree-0 elements and `count` sums of 1-4 terms of degree <= 6."""
    out = [sf.zero(basis), sf.one(basis), sf.SymFunc(basis, {(): rng.choice(coeffs)})]
    for _ in range(count):
        terms = {rng.choice(partitions_of(rng.randint(0, 6))): rng.choice(coeffs)
                 for _ in range(rng.randint(1, 4))}
        out.append(sf.SymFunc(basis, terms))
    return out


def test_convert_agrees_with_polynomial_oracle_on_all_basis_pairs():
    rng = random.Random(8)
    for src in sf.BASES:
        for f in _mixed_elements(src, rng, 10):
            nvars = max(sf.degree(f), 1)
            poly = sf.monomial_expand(f, nvars)
            for dst in sf.BASES:
                if dst != src:
                    g = sf.convert(f, dst)
                    assert g.basis == dst and sf.monomial_expand(g, nvars) == poly, \
                        (src, dst, sf.render(f))


_NON_INTEGRAL = re.compile(r"coefficient (\S+) of (\(.*\)) is not an integer in basis '(\w)'")


def test_convert_rational_powersum_raises_exactly_outside_sym():
    # Sym over Z is one lattice in m, e, h and s, so a powersum combination
    # converts into all four or into none; the error names a true coefficient
    rng = random.Random(9)
    elems = [sf.SymFunc(P, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})]  # = h2
    elems += _mixed_elements(P, rng, 40, (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
                                          Fraction(1, 6), 1, -2))
    raised = 0
    for f in elems:
        poly = sf.monomial_expand(f, max(sf.degree(f), 1))
        integral = all(Fraction(c).denominator == 1 for c in poly.values())
        for dst in (M, E, H, S):
            want = {}
            for lam, c in f.coeffs.items():
                for nu, k in sf.convert(be(P, lam), dst).coeffs.items():
                    want[nu] = want.get(nu, 0) + c * k
            if integral:
                assert sf.convert(f, dst).coeffs == {nu: c for nu, c in want.items() if c}
                continue
            raised += 1
            with pytest.raises(NonIntegralResult) as err:
                sf.convert(f, dst)
            c, nu, basis = _NON_INTEGRAL.fullmatch(str(err.value)).groups()
            assert basis == dst and Fraction(c) == want[ast.literal_eval(nu)]
            assert Fraction(c).denominator > 1
    assert raised >= 80


def test_convert_rational_powersum_messages_pinned():
    pinned = [('1/2 p[2]', M, "1/2 of (2,)"), ('1/2 p[2]', E, "1/2 of (1, 1)"),
              ('1/2 p[2]', H, "-1/2 of (1, 1)"), ('1/2 p[2]', S, "1/2 of (2,)"),
              ('1/2 p[2,1]', H, "-1/2 of (1, 1, 1)"), ('1/6 p[1,1,1]', S, "1/6 of (3,)"),
              ('1/3 p[3]', E, "1/3 of (1, 1, 1)"), ('1/2 p[]', S, "1/2 of ()")]
    for text, dst, where in pinned:
        with pytest.raises(NonIntegralResult) as err:
            sf.convert(sf.parse_symfunc(text), dst)
        assert str(err.value) == f"coefficient {where} is not an integer in basis '{dst}'"


def test_convert_rational_powersum_message_ignores_insertion_order():
    # the message names the first non-integral coefficient in display order,
    # whichever order the terms of the input were inserted in
    terms = [((2,), Fraction(2, 3)), ((1, 1), Fraction(1, 6))]
    for dst in (M, E, H, S):
        want = {}
        for lam, c in terms:
            for nu, k in sf.convert(be(P, lam), dst).coeffs.items():
                want[nu] = want.get(nu, 0) + c * k
        first = min((nu for nu, c in want.items() if Fraction(c).denominator > 1),
                    key=partition_key)
        for order in (terms, terms[::-1]):
            with pytest.raises(NonIntegralResult) as err:
                sf.convert(sf.SymFunc(P, dict(order)), dst)
            assert str(err.value) == \
                f"coefficient {want[first]} of {first} is not an integer in basis '{dst}'"
    with pytest.raises(NonIntegralResult, match=r'-4/3 of \(2,\)'):
        sf.convert(sf.SymFunc(P, dict(terms[::-1])), E)


def test_row_and_hopf_memos_are_bounded():
    # every row of degree <= 10 fits, so none is evicted: the 2,919 rows
    # between the five bases and of Delta(h_lam) into h (x) h, and their
    # layouts, one per size and kind (partitions or pairs)
    sizes = [len(partitions_of(d)) for d in range(11)]
    rows = 21 * sum(sizes)
    # ordered pairs of total degree <= 10: products in m and in s
    pairs = sum(sizes[a] * sizes[b] for a in range(11) for b in range(11 - a))
    # dual_apply and the Fock action skew by |kappa| <= 3 on degree <= 10
    skews = sum(sizes[:4]) * sum(sizes)
    # every strip list that the Fock action of bidegree <= (4,4) reads on
    # states of degree <= 8: horizontal n-strips removed from them, and
    # vertical n-strips (a list and its conjugate) grown up to degree 11
    strips = 4 * sum(len(partitions_of(d)) for d in range(9)) + \
        2 * 4 * sum(len(partitions_of(d)) for d in range(12))
    # border strips of every size removed from and grown on degree <= 10
    hooks = 2 * sum(d * sizes[d] for d in range(11))
    for memo, need in ((sf._row, rows), (sf._packed_row, rows), (sf._row_layout, 2 * 11),
                       (sf._h_leg, 139), (sf._strips, strips), (sf._hooks, hooks),
                       (cb.partitions_of, 11), (sf._ranks, 11), (sf._z, sum(sizes)),
                       (sf._m_mult_basis, pairs), (sf._skew, pairs + skews)):
        size = memo.cache_parameters()['maxsize']
        assert size is not None and size >= need


def test_schur_to_monomial_unitriangular_with_kostka_positivity():
    for d in range(1, 7):
        parts = partitions_of(d)
        pos = {lam: i for i, lam in enumerate(parts)}
        for lam in parts:
            expansion = sf.convert(be(S, lam), M).coeffs
            assert expansion[lam] == 1, 'diagonal must be 1'
            for mu, c in expansion.items():
                assert c > 0, 'Kostka numbers are nonnegative'
                assert pos[mu] >= pos[lam], 'triangularity violated'
                assert dominates(lam, mu)


def _cells(lam):
    return {(i, j) for i, part in enumerate(lam) for j in range(part)}


def _strip_kinds(big, small):
    # (horizontal, vertical) for the cell sets of outer and inner shapes:
    # inner fits in outer and the skew cells share no column (no row)
    if not small <= big:
        return False, False
    skew = big - small
    rows, cols = {i for i, _ in skew}, {j for _, j in skew}
    return len(cols) == len(skew), len(rows) == len(skew)


def test_strips_match_a_brute_force_filter():
    cells = {lam: _cells(lam) for d in range(21) for lam in partitions_of(d)}
    for d in range(11):
        for lam in partitions_of(d):
            for n in range(11):
                kinds = {nu: _strip_kinds(cells[nu], cells[lam]) for nu in partitions_of(d + n)}
                kinds_down = {nu: _strip_kinds(cells[lam], cells[nu])
                              for nu in (partitions_of(d - n) if n <= d else ())}
                for vertical in (False, True):
                    grown = sf._strips(lam, n, True, vertical)
                    assert len(grown) == len(set(grown))
                    assert set(grown) == {nu for nu, k in kinds.items() if k[vertical]}
                    removed = sf._strips(lam, n, False, vertical)
                    assert len(removed) == len(set(removed))
                    assert set(removed) == {nu for nu, k in kinds_down.items() if k[vertical]}


def _border_strip_sign(outer, inner):
    # (-1)^(rows - 1) when outer/inner is a border strip: inner fits in
    # outer and the skew cells are edge-connected with no 2x2 block; else None
    big, small = _cells(outer), _cells(inner)
    skew = big - small
    if not small <= big or not skew:
        return None
    if any({(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew for i, j in skew):
        return None
    seen, todo = set(), [min(skew)]
    while todo:
        i, j = todo.pop()
        if (i, j) in skew and (i, j) not in seen:
            seen.add((i, j))
            todo += [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
    if seen != skew:
        return None
    return -1 if len({i for i, _ in skew}) % 2 == 0 else 1


def test_hooks_match_the_border_strip_definition():
    for d in range(8):
        for lam in partitions_of(d):
            for n in range(1, 8):
                grown = sf._hooks(lam, n, True)
                assert len(grown) == len({nu for nu, _ in grown})
                want = {(nu, _border_strip_sign(nu, lam)) for nu in partitions_of(d + n)}
                assert set(grown) == {pair for pair in want if pair[1]}, (lam, n)
                removed = sf._hooks(lam, n, False)
                assert len(removed) == len({nu for nu, _ in removed})
                want = {(nu, _border_strip_sign(lam, nu))
                        for nu in (partitions_of(d - n) if n <= d else ())}
                assert set(removed) == {pair for pair in want if pair[1]}, (lam, n)


def _ssyt_count(shape, content):
    # fill the cells row by row: each entry at least its left neighbour,
    # above the entry over it, and each value used as often as content says
    cells = [(i, j) for i, part in enumerate(shape) for j in range(part)]
    left, grid = list(content), {}

    def fill(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        total = 0
        for v in range(max(grid.get((i, j - 1), 1), grid.get((i - 1, j), 0) + 1),
                       len(content) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                grid[i, j] = v
                total += fill(k + 1)
                left[v - 1] += 1
        grid.pop((i, j), None)
        return total

    return fill(0)


def test_kostka_rows_count_tableaux_and_match_the_oracle():
    for d in range(11):
        for lam in partitions_of(d):
            row = dict(sf._row(S, M, lam))
            assert row == {mu: k for mu, k in sf._m_coefficients(S, lam) if k}
            for mu in partitions_of(d):
                assert row.get(mu, 0) == _ssyt_count(lam, mu), (lam, mu)


def _z(rho):
    # z_rho = prod_i i^(m_i) m_i!, the norm <p_rho, p_rho>
    return math.prod(part ** rho.count(part) * math.factorial(rho.count(part))
                     for part in set(rho))


def _row_element(src, dst, lam):
    # a row into p holds the pairings <X_lam, p_rho>, the coefficients times z_rho
    row = sf._row(src, dst, lam)
    assert all(type(c) is int for _, c in row), (src, dst, lam)
    if dst == P:
        return sf.SymFunc(P, {rho: Fraction(t, _z(rho)) for rho, t in row})
    return sf.SymFunc(dst, dict(row))


def test_m_to_basis_tables_invert_under_polynomial_oracle():
    # each row m_mu = sum c X_lam must expand to the polynomial of m_mu
    for d in range(9):
        nvars = max(d, 1)
        for basis in (S, E, H, P):
            for mu in partitions_of(d):
                assert sf.monomial_expand(_row_element(M, basis, mu), nvars) == \
                    sf.monomial_expand(be(M, mu), nvars)


def test_e_and_h_rows_expand_to_their_source_under_polynomial_oracle():
    for d in range(9):
        nvars = max(d, 1)
        for src, dst in ((E, H), (H, E), (S, H), (S, E)):
            for lam in partitions_of(d):
                row = sf._row(src, dst, lam)
                assert sf.monomial_expand(sf.SymFunc(dst, dict(row)), nvars) == \
                    sf.monomial_expand(be(src, lam), nvars), (src, lam)


def _jacobi_trudi(lam):
    """det(h_{lam_i-i+j}) (Macdonald, ch. I (3.4)) as a map h-partition ->
    coefficient, with an extra unit row and column: each of the 2^(l+1)
    minors, expanded along its top row, is memoised on its columns, h_0 is
    an empty factor and a negative subscript prunes."""
    n = len(lam) + 1
    lamp = tuple(lam) + (0,)

    @functools.lru_cache(maxsize=None)
    def minor(mask):
        # determinant of the submatrix on the columns in mask and the last
        # popcount(mask) rows, as a map monomial -> coefficient
        row = n - bin(mask).count('1')
        if row == n:
            return {(): 1}
        out = {}
        pos = 0  # index of column j within mask, fixing the cofactor sign
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            k = lamp[row] + j - row
            if k >= 0:
                sign = -1 if pos % 2 else 1
                for mon, c in minor(mask & ~bit).items():
                    key = mon if k == 0 else tuple(sorted(mon + (k,), reverse=True))
                    out[key] = out.get(key, 0) + sign * c
            pos += 1
        return out

    return {mu: c for mu, c in minor((1 << n) - 1).items() if c}


def test_schur_to_h_rows_match_the_jacobi_trudi_determinant():
    # the rows peel special rim hooks; the determinant shares no kernel with them
    shapes = [lam for d in range(11) for lam in partitions_of(d)]
    for lam in shapes + [(1,) * k for k in range(11, 15)]:
        assert dict(sf._row(S, H, lam)) == _jacobi_trudi(lam), lam


def _powersum_row_mismatches(max_degree):
    """(src, dst, lam) of every row into or out of p, up to max_degree,
    whose element differs from the polynomial of its source."""
    bad = []
    for d in range(max_degree + 1):
        nvars = max(d, 1)
        for lam in partitions_of(d):
            for other in (M, E, H, S):
                for src, dst in ((other, P), (P, other)):
                    if sf.monomial_expand(_row_element(src, dst, lam), nvars) != \
                            sf.monomial_expand(be(src, lam), nvars):
                        bad.append((src, dst, lam))
    return bad


def test_powersum_rows_expand_to_their_source_under_polynomial_oracle(fresh_memos):
    # rows into p are integer pairings over z_rho, rows out of p are integral
    assert _powersum_row_mismatches(8) == []


def test_schur_to_powersum_rows_are_the_character_table():
    # chi^lam(rho) = <s_lam, p_rho>, against the character oracle of bimodel,
    # which symfunc does not import
    from symcat import bimodel as bm
    with open(sf.__file__) as source:
        tree = ast.parse(source.read())
    imported = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, 'module', None)] + [a.name for a in node.names]]
    assert not any(name and 'bimodel' in name for name in imported)
    for d in range(9):
        for lam in partitions_of(d):
            row = dict(sf._row(S, P, lam))
            for rho in partitions_of(d):
                assert row.get(rho, 0) == bm.character_value(lam, rho), (lam, rho)


def test_powersum_rows_catch_a_wrong_border_strip_sign(fresh_memos, monkeypatch):
    true_hooks = sf._hooks

    def corrupted(lam, n, grow):
        # p1 s2 is s3 + s21, not s3 - s21
        hooks = true_hooks(lam, n, grow)
        if (lam, n, grow) == ((2,), 1, True):
            return tuple((nu, -sign if nu == (2, 1) else sign) for nu, sign in hooks)
        return hooks

    monkeypatch.setattr(sf, '_hooks', corrupted)
    # p21 = p1 (s2 - s11) is s3 - s111
    assert sf.convert(be(P, (2, 1)), S).coeffs == {(3,): 1, (2, 1): -2, (1, 1, 1): -1}
    bad = _powersum_row_mismatches(4)
    assert (P, S, (2, 1)) in bad and (P, H, (2, 1)) in bad


@pytest.mark.parametrize('lam, dst', [((1,) * 16, S), ((2,) * 8, E), ((6, 4, 3, 2, 1), P)])
def test_cold_m_conversion_solves_only_its_side_of_the_dominance_order(fresh_memos, lam, dst):
    # m_lam in s reads the s -> h rows of the shapes below lam (it is their
    # transpose), in e also those of their conjugates (omega), in p it
    # solves the m rows of those above it: fewer than p(16) = 231 rows
    sf.convert(be(M, lam), dst)
    assert sf._row.cache_info().currsize < 231


##########################
# products               #
##########################

def test_multiply_pinned_examples():
    f = be(H, (3, 1))
    assert sf.multiply(f, sf.one(H)) == f
    assert sf.multiply(be(H, (2,)), be(H, (1,))) == be(H, (2, 1))
    # oracle-derived: s1*s1 expands to x^2 terms + 2 x1x2 in 2 vars
    assert sf.multiply(be(S, (1,)), be(S, (1,))) == be(S, (2,)) + be(S, (1, 1))


def test_multiply_against_polynomial_oracle():
    nvars = 8
    cases = []
    for d1 in range(4):
        for d2 in range(4 - d1):
            for b1 in (M, E, H, S):
                for b2 in (M, E, H, S):
                    for lam in partitions_of(d1):
                        for mu in partitions_of(d2):
                            cases.append((be(b1, lam), be(b2, mu)))
    for f, g in cases:
        direct = sf.monomial_expand(sf.multiply(f, g), nvars)
        via_polys = sf.poly_mult(sf.monomial_expand(f, nvars),
                                 sf.monomial_expand(g, nvars))
        assert direct == via_polys


def test_monomial_products_of_degree_6_to_8_match_the_dominant_oracle():
    # every ordered pair of m basis elements above the product-oracle cap;
    # in d variables, d the total degree, every m_nu of the product shows
    for d in range(6, 9):
        expanded = {lam: sf.monomial_expand(be(M, lam), d)
                    for k in range(d + 1) for lam in partitions_of(k)}
        for a in range(d + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(d - a):
                    want = sf.dominant_product(_dominant_part(expanded[lam]),
                                               _dominant_part(expanded[mu]), (d,), d)
                    assert want == _dominant_part(sf.poly_mult(expanded[lam], expanded[mu]))
                    got = sf.multiply(be(M, lam), be(M, mu))
                    assert sf.dominant_expand(got, d) == want, (lam, mu)


def test_powersum_to_monomial_rows_to_degree_10_match_the_definition():
    # p_lam has at most l(lam) parts in each monomial
    for d in range(11):
        for lam in partitions_of(d):
            assert dict(sf._row(P, M, lam)) == \
                sf.dominant_expand(be(P, lam), max(len(lam), 1)), lam


def test_multiply_commutative_and_degree_additive():
    f = sf.parse_symfunc('s[2,1] + s[1]')
    g = sf.parse_symfunc('2 e[2] + e[1,1]')
    assert sf.multiply(f, g) == sf.convert(sf.multiply(g, f), S)
    hom_f = be(S, (2, 1))
    hom_g = be(E, (2,))
    assert sf.degree(sf.multiply(hom_f, hom_g)) == 5


def test_multiply_powersum_route():
    # products with powersum operands happen by concatenation
    assert sf.multiply(be(P, (2,)), be(P, (3, 1))) == be(P, (3, 2, 1))
    half = sf.SymFunc(P, {(1,): Fraction(1, 2)})
    assert sf.multiply(half, be(P, (1,))) == sf.SymFunc(P, {(1, 1): Fraction(1, 2)})
    # integral cross-family product routed through p stays correct
    assert sf.multiply(be(H, (1,)), be(P, (1,))) == be(H, (1, 1))


def _outcome(fn, *args):
    """What fn(*args) gives: its basis and typed coefficients, or the text of its error."""
    try:
        f = fn(*args)
    except NonIntegralResult as exc:
        return 'raised', str(exc)
    return f.basis, {lam: (type(c), c) for lam, c in f.coeffs.items()}


def _convert_term_by_term(f, dst):
    # a powersum element read term by term through the integral p rows; the
    # public constructor names the first non-integral coefficient, if any
    out = {}
    for lam, c in f.coeffs.items():
        for nu, k in sf.convert(be(P, lam), dst).coeffs.items():
            out[nu] = out.get(nu, 0) + c * k
    return sf.SymFunc(dst, out)


def _multiply_by_concatenation(f, g):
    # both factors read in p, partitions concatenated, the product read in
    # the basis of f
    fp, gp = sf.convert(f, P).coeffs, sf.convert(g, P).coeffs
    prod = {}
    for lam, x in fp.items():
        for mu, y in gp.items():
            nu = tuple(sorted(lam + mu, reverse=True))
            prod[nu] = prod.get(nu, 0) + x * y
    return sf.convert(sf.SymFunc(P, prod), f.basis)


def test_rational_powersum_input_keeps_its_results_and_error_texts():
    rng = random.Random(10)
    rational = _mixed_elements(P, rng, 12, (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
                                            Fraction(1, 6), 1, -2))
    raised = 0
    for f in rational:
        for dst in (M, E, H, S):
            want = _outcome(_convert_term_by_term, f, dst)
            assert _outcome(sf.convert, f, dst) == want, (sf.render(f), dst)
            raised += want[0] == 'raised'
    others = [g for basis in (M, E, H, S) for g in _mixed_elements(basis, rng, 2)]
    for f in rational[::2]:
        for g in others:
            for a, b in ((f, g), (g, f)):
                want = _outcome(_multiply_by_concatenation, a, b)
                assert _outcome(sf.multiply, a, b) == want, (sf.render(a), sf.render(b))
                raised += want[0] == 'raised'
    assert raised >= 60


def _multiply_through_a_pivot(f, g):
    # the product by a pivot basis: border strips on f in s when g is in p,
    # else m-products with a monomial factor and Pieri chains in s otherwise
    if g.basis == P:
        fs = sf._sum_rows(f.coeffs, f.basis, S)
        prod = {}
        for rho, c in g.coeffs.items():
            for nu, k in sf._mn(fs, rho).items():
                prod[nu] = prod.get(nu, 0) + c * k
        return sf._in_basis(f.basis, prod, S)
    pivot = M if M in (f.basis, g.basis) else S
    fx, gx = sf._sum_rows(f.coeffs, f.basis, pivot), sf._sum_rows(g.coeffs, g.basis, pivot)
    prod = sf._pair_sum(fx, gx, sf._m_mult_basis) if pivot == M else \
        sf._pair_sum(fx, gx, sf._skew, True)
    return sf.SymFunc._new(f.basis, sf._sum_rows(prod, pivot, f.basis))


def _antipode_through_h(f):
    # f read in h, S(h_lam) = (-1)^|lam| e_lam read back in h by the e -> h
    # row, and the result converted to the basis of f
    fh = sf._sum_rows(f.coeffs, f.basis, H)
    out = sf._sum_rows({lam: -c if sum(lam) % 2 else c for lam, c in fh.items()}, E, H)
    return sf.convert(sf.SymFunc._new(H, out), f.basis)


def test_products_with_an_e_or_h_left_factor_match_the_pivot_route():
    # concatenation in e or h against m-products and Pieri chains, on every
    # pair of basis elements of total degree <= 8
    for n in range(9):
        for a in range(n + 1):
            for lam, mu in itertools.product(partitions_of(a), partitions_of(n - a)):
                for left, right in itertools.product((E, H), sf.BASES):
                    f, g = be(left, lam), be(right, mu)
                    assert _outcome(sf.multiply, f, g) == \
                        _outcome(_multiply_through_a_pivot, f, g), (f, g)


def test_antipode_as_signed_omega_matches_the_route_through_h():
    for n in range(9):
        for lam in partitions_of(n):
            for basis in sf.BASES:
                f = be(basis, lam)
                assert _outcome(sf.antipode, f) == _outcome(_antipode_through_h, f), f


def test_rational_powersum_products_and_antipodes_keep_their_results_and_error_texts():
    rng = random.Random(11)
    rational = _mixed_elements(P, rng, 12, (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
                                            Fraction(1, 6), 1, -2))
    rational.append(sf.parse_symfunc('1/2 p[2] + 1/2 p[1,1]'))  # h[2], integral
    raised = 0
    for g in rational:
        want = _outcome(_antipode_through_h, g)
        assert _outcome(sf.antipode, g) == want, sf.render(g)
        raised += want[0] == 'raised'
        for f in _mixed_elements(E, rng, 2) + _mixed_elements(H, rng, 2):
            want = _outcome(_multiply_through_a_pivot, f, g)
            assert _outcome(sf.multiply, f, g) == want, (sf.render(f), sf.render(g))
            raised += want[0] == 'raised'
    assert raised >= 40
    # the rational factor is checked only in the result
    assert sf.multiply(sf.parse_symfunc('2 h[1]'), sf.parse_symfunc('1/2p[2]')) == \
        sf.parse_symfunc('2 h[2,1] - h[1,1,1]')
    with pytest.raises(NonIntegralResult,
                       match=re.escape("coefficient 1/2 of (1, 1) is not an integer in basis 'h'")):
        sf.antipode(sf.parse_symfunc('1/2p[2]'))


##########################
# monomial_expand        #
##########################

def test_monomial_expand_pinned():
    assert sf.monomial_expand(be(M, (1, 1)), 2) == {(1, 1): 1}
    assert sf.monomial_expand(be(M, (2, 1)), 2) == {(2, 1): 1, (1, 2): 1}
    assert sf.monomial_expand(be(P, (2,)), 3) == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def test_monomial_expand_errors():
    with pytest.raises(InsufficientVariables):
        sf.monomial_expand(be(M, (1, 1, 1)), 2)
    with pytest.raises(InsufficientVariables):
        sf.monomial_expand(be(M, (1,)), 0)


def test_monomial_expand_symmetry():
    poly = sf.monomial_expand(be(S, (2, 1)), 3)
    # invariance under swapping the first two variables
    swapped = {(b, a, c): v for (a, b, c), v in poly.items()}
    assert swapped == poly


def _naive_poly_mult(P, Q):
    out = {}
    for a, ca in P.items():
        for b, cb in Q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def test_poly_mult_matches_tuple_sums():
    rng = random.Random(2014)

    def random_poly(nvars, terms, top):
        return {tuple(rng.randint(0, top) for _ in range(nvars)): rng.randint(-3, 3)
                for _ in range(terms)}

    cases = [({}, {(1, 0): 2}), ({(0, 0): 3}, {}), ({(0, 0, 0): 2}, {(0, 0, 0): -5}),
             ({(0, 0): 3}, {(4, 1): 1, (0, 2): -1}),
             ({(9, 0, 1): 1, (0, 0, 0): 1}, {(0, 1, 0): 1, (1, 0, 0): -1}),
             ({(2, 0): 1, (0, 2): 1}, {(2, 0): 1, (0, 2): -1})]
    for _ in range(40):
        nvars = rng.randint(1, 5)
        cases.append((random_poly(nvars, rng.randint(0, 8), rng.randint(0, 6)),
                      random_poly(nvars, rng.randint(0, 8), rng.randint(0, 2))))
    for P, Q in cases:
        P = {a: c for a, c in P.items() if c}
        Q = {b: c for b, c in Q.items() if c}
        assert sf.poly_mult(P, Q) == _naive_poly_mult(P, Q)


def _dominant_part(poly):
    """poly at its weakly decreasing exponents, each keyed without its zeros."""
    return {tuple(a for a in alpha if a): c for alpha, c in poly.items()
            if all(x >= y for x, y in zip(alpha, alpha[1:]))}


def _product_degrees(P, Q):
    """The degrees that a term of P and a term of Q add up to."""
    return {a + b for a in set(map(sum, P)) for b in set(map(sum, Q))}


def test_dominant_product_is_poly_mult_at_weakly_decreasing_exponents():
    rng = random.Random(10)

    def random_symmetric(nvars):
        # a sum of expansions of 0-3 basis elements of mixed degree <= 4;
        # e, h and s of degree d have a term m_(1^d), so d <= nvars there
        poly = {}
        for _ in range(rng.randint(0, 3)):
            basis = rng.choice(sf.BASES)
            top = 4 if basis in 'mp' else min(4, nvars)
            lam = rng.choice([lam for d in range(top + 1) for lam in partitions_of(d)
                              if len(lam) <= nvars])
            c = rng.choice((1, -1, 2, -3))
            for alpha, k in sf.monomial_expand(be(basis, lam), nvars).items():
                poly[alpha] = poly.get(alpha, 0) + c * k
        return {alpha: c for alpha, c in poly.items() if c}

    for nvars in range(1, 7):
        polys = [{}, {(0,) * nvars: rng.choice((1, -2))}]
        polys += [random_symmetric(nvars) for _ in range(5)]
        for i, P in enumerate(polys):
            for Q in polys[i:]:
                assert sf.dominant_product(_dominant_part(P), _dominant_part(Q),
                                           _product_degrees(P, Q), nvars) == \
                    _dominant_part(sf.poly_mult(P, Q))
    # dominant_expand is monomial_expand restricted the same way
    for text, nvars in (('s[2,1] - 2 e[3]', 3), ('h[2] + p[1]', 2), ('m[3,1,1]', 4)):
        f = sf.parse_symfunc(text)
        assert sf.dominant_expand(f, nvars) == _dominant_part(sf.monomial_expand(f, nvars))


def test_product_oracle_verdicts_agree_on_the_default_pairs():
    # each of the 600 pairs of the product-oracle case, against the true
    # product and against one off by a single monomial term
    nvars, rng = 10, random.Random(11)
    elems = [(b, lam) for d in range(6) for lam in partitions_of(d) for b in (M, E, H, S)]
    expanded = {key: sf.monomial_expand(be(*key), nvars) for key in elems}
    checked = 0
    for i, (b1, lam) in enumerate(elems):
        for b2, mu in elems[i:]:
            d = sum(lam) + sum(mu)
            if d > 5:
                continue
            P, Q = expanded[(b1, lam)], expanded[(b2, mu)]
            full = sf.poly_mult(P, Q)
            dominant = sf.dominant_product(sf.dominant_expand(be(b1, lam), nvars),
                                           sf.dominant_expand(be(b2, mu), nvars), (d,), nvars)
            assert dominant == _dominant_part(full)
            prod = sf.multiply(be(b1, lam), be(b2, mu))
            for candidate in (prod, prod + be(M, rng.choice(partitions_of(d)))):
                assert (sf.dominant_expand(candidate, nvars) == dominant) == \
                    (sf.monomial_expand(candidate, nvars) == full)
            assert sf.dominant_expand(prod, nvars) == dominant
            checked += 1
    assert checked == 600


def _brute_expand(basis, lam, n):
    """X_lam(x_1..x_n) by enumerating its definition with itertools.product.

    m: exponent vectors whose nonzero entries rearrange lam; e/h/p: one
    choice per factor of an n-subset, an n-multiset or a single variable
    raised to the part; s: fillings of the diagram of lam with 1..n that
    are weakly increasing along rows and strictly down columns.
    """
    out = {}

    def add(variables):
        alpha = [0] * n
        for v in variables:
            alpha[v] += 1
        out[tuple(alpha)] = out.get(tuple(alpha), 0) + 1

    if basis == M:
        for alpha in itertools.product(range(max(lam, default=0) + 1), repeat=n):
            if tuple(sorted((a for a in alpha if a), reverse=True)) == lam:
                out[alpha] = 1
    elif basis == S:
        cells = [(r, c) for r, part in enumerate(lam) for c in range(part)]
        for filling in itertools.product(range(n), repeat=len(cells)):
            t = dict(zip(cells, filling))
            if all(t[r, c] <= t[r, c + 1] for r, c in cells if (r, c + 1) in t) and \
                    all(t[r, c] < t[r + 1, c] for r, c in cells if (r + 1, c) in t):
                add(filling)
    else:
        def choices(part):
            if basis == E:
                return list(itertools.combinations(range(n), part))
            if basis == H:
                return list(itertools.combinations_with_replacement(range(n), part))
            return [(v,) * part for v in range(n)]
        for pick in itertools.product(*[choices(part) for part in lam]):
            add(itertools.chain.from_iterable(pick))
    return out


def test_monomial_expand_matches_definitions():
    for d in range(6):
        for lam in partitions_of(d):
            for basis in (M, E, H, P, S):
                # in max(d, 1) variables every monomial of X_lam shows
                full = _brute_expand(basis, lam, max(d, 1))
                widest = max((sum(1 for a in alpha if a) for alpha in full), default=0)
                for n in range(1, 5):
                    if widest > n:
                        with pytest.raises(InsufficientVariables):
                            sf.monomial_expand(be(basis, lam), n)
                    else:
                        assert sf.monomial_expand(be(basis, lam), n) == \
                            _brute_expand(basis, lam, n), (basis, lam, n)


_SYM_KERNELS = ('_row', '_strips', '_pieri', '_skew', '_m_mult_basis', '_pair_sum',
                '_p_times', 'convert', 'multiply', '_packed_row', '_add_packed')


def _block_sym_kernels(monkeypatch):
    def blocked(*args):
        raise AssertionError('the polynomial oracle reached a Sym kernel')
    clear_memos()
    for name in _SYM_KERNELS:
        monkeypatch.setattr(sf, name, blocked)


def test_oracle_shares_no_kernel_with_sym(monkeypatch):
    elems = [(be(b, lam), n) for b in (M, E, H, P, S) for d in range(5)
             for lam in partitions_of(d) for n in (max(d, 1), 6)]
    elems += [(sf.SymFunc(P, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}), 3),
              (sf.parse_symfunc('s[3,1] - 2 s[2,2] + s[1]'), 5),
              (sf.parse_symfunc('e[2,1] + 3 e[1]'), 4)]
    polys = [sf.monomial_expand(f, n) for f, n in elems]
    pairs = [(i, j) for i in range(len(elems)) for j in range(i, len(elems), 7)
             if len(next(iter(polys[i]))) == len(next(iter(polys[j])))]
    products = [sf.poly_mult(polys[i], polys[j]) for i, j in pairs]
    dominant = [sf.dominant_expand(f, n) for f, n in elems]
    degrees = [_product_degrees(polys[i], polys[j]) for i, j in pairs]
    dominant_products = [sf.dominant_product(dominant[i], dominant[j], n, elems[i][1])
                         for (i, j), n in zip(pairs, degrees)]
    assert dominant_products == [_dominant_part(poly) for poly in products]
    _block_sym_kernels(monkeypatch)
    assert [sf.monomial_expand(f, n) for f, n in elems] == polys
    assert [sf.poly_mult(polys[i], polys[j]) for i, j in pairs] == products
    assert [sf.dominant_expand(f, n) for f, n in elems] == dominant
    assert [sf.dominant_product(dominant[i], dominant[j], n, elems[i][1])
            for (i, j), n in zip(pairs, degrees)] == dominant_products


def test_insufficient_variables_decided_after_cancellation(monkeypatch):
    _block_sym_kernels(monkeypatch)
    # s2 - s11, e11 - 2 e2 and 2 h2 - h11 all equal p2 = m2: the m11 terms cancel
    for text in ('s[2] - s[1,1]', 'e[1,1] - 2 e[2]', '2 h[2] - h[1,1]'):
        assert sf.monomial_expand(sf.parse_symfunc(text), 1) == {(2,): 1}
    for text in ('s[2] + s[1,1]', 'e[1,1] - e[2]', 'h[2] - h[1,1]', 'p[1,1] - p[2]'):
        with pytest.raises(InsufficientVariables):
            sf.monomial_expand(sf.parse_symfunc(text), 1)
    # s21 - s111 keeps the 3-part term m111 = e3 with coefficient 2 - 1
    with pytest.raises(InsufficientVariables):
        sf.monomial_expand(sf.parse_symfunc('s[2,1] - s[1,1,1]'), 2)
    assert sf.monomial_expand(sf.parse_symfunc('s[2,1] - 2 s[1,1,1]'), 2) == \
        {(2, 1): 1, (1, 2): 1}


##########################
# packed sums            #
##########################

def _dict_sum(coeffs, src, dst):
    # sum c X_lam in dst one row entry at a time, cancelled terms dropped
    out = {}
    for lam, c in coeffs.items():
        for mu, k in sf._row(src, dst, lam):
            out[mu] = out.get(mu, 0) + c * k
    return {mu: c for mu, c in out.items() if c}


def _nonzero(coeffs):
    return {key: c for key, c in coeffs.items() if c}


@pytest.fixture
def packed_sums(fresh_memos, monkeypatch):
    """The sizes of the degrees that `_add_packed` summed packed, in call
    order; every memo is cleared before and after the test."""
    taken = []
    true_add = sf._add_packed

    def counted(part, n, *rest):
        done = true_add(part, n, *rest)
        if done:
            taken.append(n)
        return done

    monkeypatch.setattr(sf, '_add_packed', counted)
    return taken


def test_packed_sums_match_the_dict_sum_on_all_basis_pairs(packed_sums):
    rng = random.Random(27)
    for d in range(13):
        lams = partitions_of(d)
        for src, dst in itertools.permutations(sf.BASES, 2):
            coeffs = {lam: rng.randint(-3, 3) for lam in lams}
            want = _dict_sum(coeffs, src, dst)  # builds the rows, packing some
            del packed_sums[:]
            assert _nonzero(sf._sum_rows(coeffs, src, dst)) == want
            # every partition of d: the rows x slots floor alone decides
            assert packed_sums == ([d] if len(lams) ** 2 >= sf._PACK_MIN_CELLS else [])


def _synthetic_rows(monkeypatch, entries):
    """Patch `_row` so that the s -> m row of the i-th partition of 10 is
    entries[i] on the first two partitions of 10 (every other row is kept);
    return those source partitions and a list of the synthetic rows read."""
    lams, reads = partitions_of(10)[:len(entries)], []
    first, second = partitions_of(10)[:2]
    rows = {lam: ((first, a), (second, b)) for lam, (a, b) in zip(lams, entries)}
    true_row = sf._row

    def row(src, dst, lam):
        if (src, dst) == (S, M) and lam in rows:
            reads.append(lam)
            return rows[lam]
        return true_row(src, dst, lam)

    sf._packed_row.cache_clear()
    monkeypatch.setattr(sf, '_row', row)
    return lams, reads


def test_packed_slots_at_plus_and_minus_2_63_less_1_decode_exactly(packed_sums, monkeypatch):
    top = 2 ** 63 - 1
    lams, reads = _synthetic_rows(monkeypatch, [(2 ** 61, -2 ** 61)] * 3
                                  + [(2 ** 61 - 1, 1 - 2 ** 61)])
    assert 4 * len(partitions_of(10)) >= sf._PACK_MIN_CELLS
    first, second = partitions_of(10)[:2]
    for sign in (1, -1):
        coeffs = dict.fromkeys(lams, sign)
        sf._sum_rows(coeffs, S, M)  # packs the rows
        del reads[:], packed_sums[:]
        assert sf._sum_rows(coeffs, S, M) == {first: sign * top, second: -sign * top}
        assert packed_sums == [10] and reads == []


def test_a_sum_whose_bound_reaches_2_63_takes_the_dict_loop(packed_sums, monkeypatch):
    lams, reads = _synthetic_rows(monkeypatch, [(2 ** 61, -2 ** 61)] * 4)
    first, second = partitions_of(10)[:2]
    for sign in (1, -1):
        coeffs = dict.fromkeys(lams, sign)
        sf._sum_rows(coeffs, S, M)
        del reads[:]
        assert sf._sum_rows(coeffs, S, M) == {first: sign * 2 ** 63, second: -sign * 2 ** 63}
        assert packed_sums == [] and reads == list(lams)  # the dict loop reads every row
    # a coefficient of 2^62 against rows whose largest entry is 2
    lams, reads = _synthetic_rows(monkeypatch, [(2, -1)] * 4)
    coeffs = {lam: 2 ** 62 if i == 0 else 1 for i, lam in enumerate(lams)}
    assert sf._sum_rows(coeffs, S, M) == {first: 2 ** 63 + 6, second: -2 ** 62 - 3}
    assert packed_sums == [] and reads.count(lams[0]) == 2  # packed, then read by the loop


@pytest.mark.parametrize('big', [2 ** 63, 2 ** 64 + 1])
def test_a_row_entry_of_2_63_or_more_is_never_packed(packed_sums, monkeypatch, big):
    lams, reads = _synthetic_rows(monkeypatch, [(big, -1)] + [(1, -1)] * 3)
    first, second = partitions_of(10)[:2]
    coeffs = dict.fromkeys(lams, 1)
    assert sf._sum_rows(coeffs, S, M) == {first: big + 3, second: -4}
    assert packed_sums == []
    # with a zero coefficient the big row adds nothing, so the sum packs
    coeffs[lams[0]] = 0
    assert _nonzero(sf._sum_rows(coeffs, S, M)) == {first: 3, second: -3}
    assert packed_sums == [10]


def test_packed_sums_keep_rational_empty_and_inhomogeneous_inputs_exact(packed_sums):
    rng = random.Random(5)
    lams10 = partitions_of(10)
    assert sf._sum_rows({}, S, M) == {}
    # rational powersum coefficients take the dict loop, exactly
    coeffs = {lam: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for lam in lams10}
    assert any(c.denominator > 1 for c in coeffs.values())
    for dst in (M, E, H, S):
        want = _dict_sum(coeffs, P, dst)
        del packed_sums[:]
        assert _nonzero(sf._sum_rows(coeffs, P, dst)) == want
        assert packed_sums == []
    # integral Fractions (as a literal parses) are not ints: the dict loop
    coeffs = {lam: Fraction(rng.randint(-5, 5)) for lam in lams10}
    want = _dict_sum(coeffs, S, H)
    del packed_sums[:]
    assert _nonzero(sf._sum_rows(coeffs, S, H)) == want
    assert packed_sums == []
    # a dense degree alone packs; beside a sparse degree the whole sum takes the loop
    dense = {lam: rng.randint(1, 4) for lam in lams10[::2]}
    mixed = {**dense, **dict.fromkeys(partitions_of(3), 2)}
    for src, dst in ((S, M), (M, E), (E, P)):
        for coeffs, taken in ((dense, [10]), (mixed, [])):
            want = _dict_sum(coeffs, src, dst)
            del packed_sums[:]
            assert _nonzero(sf._sum_rows(coeffs, src, dst)) == want
            assert packed_sums == taken


def test_packed_coproduct_of_inhomogeneous_and_rational_elements(packed_sums, monkeypatch):
    dense = sf.parse_symfunc('m[4,3,2,1] - 2 m[5,5] + 3 s[3,3,2] - e[2,1] + 4 m[]')
    rational = sf.parse_symfunc('1/2p[4,2,2] - 2/3p[3,3,1,1] + p[6,2] + 3 p[2,1] - 1/5p[]')
    reads = []
    true_packed = sf._packed_row

    def packed_row(src, dst, lam):
        if dst == sf._TENSOR:
            reads.append(lam)
        return true_packed(src, dst, lam)

    monkeypatch.setattr(sf, '_packed_row', packed_row)
    # neither Delta is summed packed: the dense element spans four degrees,
    # and the rational one has Fraction coefficients in h
    for f in (dense, rational):
        assert len(f.homogeneous_parts()) > 1
        del reads[:]
        assert sf.coproduct(f) == _coproduct_by_partition_pairs(f), sf.render(f)
        assert reads == []
    # the degree-10 part of the dense element alone is
    top = sf.parse_symfunc('m[4,3,2,1] - 2 m[5,5]')
    assert sf.coproduct(top) == _coproduct_by_partition_pairs(top)
    assert set(map(sum, reads)) == {10}


##########################
# Hopf structure         #
##########################

def test_coproduct_pinned():
    cop_one = sf.coproduct(sf.one(M))
    assert cop_one == [(Fraction(1), sf.one(H), sf.one(H))]
    # Delta(e_2) = e_2 (x) 1 + e_1 (x) e_1 + 1 (x) e_2: checked by pairing
    # both sides against every h (x) h dual pair of total degree 2
    e2 = be(E, (2,))
    tri = sf.coproduct(e2)
    for d1 in range(3):
        for lam in partitions_of(d1):
            for d2 in range(3):
                for mu in partitions_of(d2):
                    want = sf.hall_pairing(sf.multiply(be(H, lam), be(H, mu)), e2)
                    got = _reference_tensor_pairing(be(H, lam), be(H, mu), tri)
                    assert got == want


def test_coproduct_h_and_e_series():
    for n in range(1, 5):
        tri = sf.coproduct(be(H, (n,)))
        terms = {(tuple(l.terms())[0][0], tuple(r.terms())[0][0]): c for c, l, r in tri}
        want = {}
        for i in range(n + 1):
            al = (i,) if i else ()
            bt = (n - i,) if n - i else ()
            want[(al, bt)] = 1
        assert {k: int(v) for k, v in terms.items()} == want


def _coproduct_by_partition_pairs(f):
    # Delta(f) with every tensor term keyed by its pair of partitions and
    # sorted by (partition_key alpha, partition_key beta)
    fh = {}  # f in h, unchecked: a rational powersum f has rational h terms
    for mu, c in f.coeffs.items():
        for lam, k in sf.convert(be(f.basis, mu), H).coeffs.items():
            fh[lam] = fh.get(lam, 0) + c * k
    acc = {}
    for lam, c in fh.items():
        pairs = {((), ()): 1}
        for part in lam:
            nxt = {}
            for (al, bt), k in pairs.items():
                for i in range(part + 1):
                    key = (tuple(sorted(al + ((i,) if i else ()), reverse=True)),
                           tuple(sorted(bt + ((part - i,) if part - i else ()), reverse=True)))
                    nxt[key] = nxt.get(key, 0) + k
            pairs = nxt
        for key, k in pairs.items():
            acc[key] = acc.get(key, 0) + c * k
    order = sorted(acc, key=lambda key: (partition_key(key[0]), partition_key(key[1])))
    return [(Fraction(acc[key]), be(H, key[0]), be(H, key[1])) for key in order if acc[key]]


def test_coproduct_order_and_types_match_sorting_by_partition_pairs():
    rng = random.Random(11)
    elems = [f for basis in sf.BASES for f in _mixed_elements(basis, rng, 4)]
    elems.append(sf.parse_symfunc('1/2p[2] + p[1]'))
    assert sum(len(f.homogeneous_parts()) > 1 for f in elems) >= 10
    for f in elems:
        got, want = sf.coproduct(f), _coproduct_by_partition_pairs(f)
        assert got == want, sf.render(f)
        assert all(type(c) is Fraction and left.basis == right.basis == H
                   for c, left, right in got)


def test_counit():
    assert sf.counit(sf.one(M)) == 1
    assert sf.counit(be(E, (3,))) == 0
    f = 5 * sf.one(H) + 2 * be(H, (2,))
    assert sf.counit(f) == 5


def test_antipode_examples():
    assert sf.antipode(sf.one(M)) == sf.one(M)
    assert sf.antipode(be(E, (1,))) == -be(E, (1,))
    for n in range(1, 7):
        assert sf.antipode(be(E, (n,))) == (-1) ** n * sf.convert(be(H, (n,)), E)
        # cross-check: sum (-1)^i e_i h_{n-i} = 0
        acc = sf.zero(M)
        for i in range(n + 1):
            ei = be(E, (i,)) if i else sf.one(E)
            hni = be(H, (n - i,)) if n - i else sf.one(H)
            acc = acc + (-1) ** i * sf.convert(sf.multiply(ei, hni), M)
        assert acc.is_zero()


def test_antipode_axiom():
    # mult(S (x) id)Delta(f) = counit(f) * 1
    for d in range(5):
        for lam in partitions_of(d):
            for basis in (M, E, H, S):
                f = be(basis, lam)
                acc = sf.zero(M)
                for c, left, right in sf.coproduct(f):
                    acc = acc + c * sf.convert(
                        sf.multiply(sf.antipode(left), right), M)
                want = sf.counit(f) * sf.one(M)
                assert acc == want, (basis, lam)


def test_antipode_is_algebra_map():
    f, g = be(H, (2,)), be(E, (2, 1))
    assert sf.antipode(sf.multiply(f, g)) == sf.multiply(sf.antipode(f),
                                                         sf.convert(sf.antipode(g), H))


##########################
# pairing                #
##########################

def test_hall_pairing_pinned():
    assert sf.hall_pairing(be(M, (2,)), be(H, (2,))) == 1
    assert sf.hall_pairing(be(S, (2, 1)), be(S, (2, 1))) == 1
    assert sf.hall_pairing(be(S, (3,)), be(S, (2, 1))) == 0
    f = sf.parse_symfunc('3 h[2,1] + h[1]')
    assert sf.hall_pairing(f, sf.one(M)) == sf.counit(f)


def test_hall_pairing_duality():
    for d in range(7):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                want = 1 if lam == mu else 0
                assert sf.hall_pairing(be(M, lam), be(H, mu)) == want
        # mixed degrees pair to zero
        if d:
            assert sf.hall_pairing(be(M, (d,)), sf.one(H)) == 0


def test_hall_pairing_symmetric():
    for d in range(5):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                for b1, b2 in ((M, H), (S, S), (E, H), (S, H)):
                    assert sf.hall_pairing(be(b1, lam), be(b2, mu)) == \
                        sf.hall_pairing(be(b2, mu), be(b1, lam))


def test_hopf_pairing_identity():
    # <a b, c> = <a (x) b, Delta(c)>
    triples = []
    for da in range(3):
        for db in range(3 - da):
            for dc in (da + db,):
                for lam in partitions_of(da):
                    for mu in partitions_of(db):
                        for nu in partitions_of(dc):
                            triples.append((be(S, lam), be(E, mu), be(H, nu)))
    for a, b, c in triples:
        lhs = sf.hall_pairing(sf.multiply(a, b), c)
        rhs = _reference_tensor_pairing(a, b, sf.coproduct(c))
        assert lhs == rhs


def _reference_pairing(f, g):
    # the definition: f in m against g in h, through the checked `convert`
    fm, gh = sf.convert(f, M).coeffs, sf.convert(g, H).coeffs
    return Fraction(sum(c * gh.get(lam, 0) for lam, c in fm.items()))


def _reference_tensor_pairing(a, b, triples):
    return sum((c * _reference_pairing(a, left) * _reference_pairing(b, right)
                for c, left, right in triples), Fraction(0))


def test_hall_pairing_matches_the_convert_definition():
    # every pair of basis elements of degree <= 6, over the 25 ordered basis
    # pairs, whichever route (s with s, m with h, through p) the pairing takes
    elems = [(basis, lam) for basis in sf.BASES for d in range(7) for lam in partitions_of(d)]
    for b1, lam in elems:
        f = be(b1, lam)
        for b2, mu in elems:
            got = sf.hall_pairing(f, be(b2, mu))
            assert type(got) is Fraction
            assert got == _reference_pairing(f, be(b2, mu)), (b1, lam, b2, mu)
    for text_f, text_g in (('s[3,1] + 2 m[2,2]', 'e[2,1,1] - h[4]'),
                           ('1/2 p[2] + 1/2 p[1,1]', 's[2] - 3 m[1,1]'),
                           ('3 s[2,1] - s[1,1,1]', 's[2,1] + s[3]'), ('0', 'h[2]')):
        f, g = sf.parse_symfunc(text_f), sf.parse_symfunc(text_g)
        assert sf.hall_pairing(f, g) == _reference_pairing(f, g)
        assert sf.hall_pairing(g, f) == _reference_pairing(f, g)


def test_hall_pairing_rational_powersum_messages_pinned():
    # a p side still goes through `convert`, f to m and then g to h
    for left, right, where in (('1/2p[2]', 'h[2]', "1/2 of (2,) is not an integer in basis 'm'"),
                               ('h[2]', '1/2p[2] + 1/3p[1,1]',
                                "-1/6 of (1, 1) is not an integer in basis 'h'"),
                               ('1/2p[2]', '1/2p[2] + 1/3p[1,1]',
                                "1/2 of (2,) is not an integer in basis 'm'")):
        with pytest.raises(NonIntegralResult) as err:
            sf.hall_pairing(sf.parse_symfunc(left), sf.parse_symfunc(right))
        assert str(err.value) == f'coefficient {where}'
    assert sf.hall_pairing(sf.parse_symfunc('p[2,1]'), be(E, (3,))) == -1
    assert sf.hall_pairing(be(S, (3, 1)), sf.parse_symfunc('s[3,1] - 2 s[2,2]')) == 1


##########################
# Schur / LR             #
##########################

def test_schur_pinned():
    for n in range(1, 7):
        assert sf.schur((n,)) == be(H, (n,))
        assert sf.convert(sf.schur((1,) * n), E) == be(E, (n,))
    assert sf.schur((1, 1)) == sf.parse_symfunc('h[1,1] - h[2]')


def test_schur_orthonormal():
    for d1 in range(6):
        for lam in partitions_of(d1):
            for d2 in range(6):
                for mu in partitions_of(d2):
                    want = 1 if lam == mu else 0
                    assert sf.hall_pairing(sf.schur(lam), sf.schur(mu)) == want


def test_lr_pinned():
    assert sf.lr_coefficients((), (3, 1)) == {(3, 1): 1}
    assert sf.lr_coefficients((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert sf.lr_coefficients((2, 1), (1,)) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    # a genuinely multiplicity-2 case, frozen from the monomial oracle
    assert sf.lr_coefficients((2, 1), (2, 1))[(3, 2, 1)] == 2


def test_lr_symmetric_and_nonnegative():
    for lam in partitions_of(3):
        for mu in partitions_of(2):
            a = sf.lr_coefficients(lam, mu)
            b = sf.lr_coefficients(mu, lam)
            assert a == b
            assert all(v > 0 for v in a.values())
            assert all(sum(nu) == 5 for nu in a)


def _hook_dimension(lam):
    # f^lam = n! / (product of the hook lengths), the standard tableaux of shape lam
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + cols[j] - i - 1
    return math.factorial(sum(lam)) // hooks


def test_lr_coefficients_match_the_hook_length_dimension():
    # S^lam (x) S^mu induced from S_a x S_b up to S_(a+b) has dimension
    # C(a+b, a) f^lam f^mu and holds c^nu_{lam,mu} copies of each S^nu
    shapes = [lam for d in range(13) for lam in partitions_of(d)]
    dim = {lam: _hook_dimension(lam) for lam in shapes}
    pairs = 0
    for lam in shapes:
        for mu in shapes:
            a, b = sum(lam), sum(mu)
            if a + b > 12:
                continue
            table = sf.lr_coefficients(lam, mu)
            assert table == sf.lr_coefficients(mu, lam)
            assert all(c > 0 and sum(nu) == a + b for nu, c in table.items())
            assert sum(c * dim[nu] for nu, c in table.items()) == \
                math.comb(a + b, a) * dim[lam] * dim[mu]
            pairs += 1
    assert pairs == 3132


##########################
# dual_apply             #
##########################

def test_dual_apply_pinned():
    g = sf.parse_symfunc('s[2,1] + s[3]')
    assert sf.dual_apply(sf.one(M), g) == g
    assert sf.dual_apply(be(H, (1,)), be(S, (1,))) == sf.one(S)
    assert sf.dual_apply(be(H, (3,)), be(S, (2,))).is_zero()


def test_dual_apply_adjointness():
    for da in range(3):
        for lam in partitions_of(da):
            f = be(H, lam)
            for db in range(3):
                for mu in partitions_of(db):
                    a = be(S, mu)
                    for dc in range(4):
                        for nu in partitions_of(dc):
                            b = be(S, nu)
                            lhs = sf.hall_pairing(a, sf.dual_apply(f, b))
                            rhs = sf.hall_pairing(sf.multiply(f, a), b)
                            assert lhs == rhs


def test_dual_apply_degree_drop():
    f = be(H, (2,))
    g = be(S, (3, 2))
    assert sf.degree(sf.dual_apply(f, g)) == 3
    assert sf.dual_apply(be(H, (6,)), g).is_zero()


##########################
# integer coefficients   #
##########################

def _coefficient_types(f):
    return {type(c) for c in f.coeffs.values()}


def test_non_powersum_coefficients_are_int():
    f = sf.parse_symfunc('s[2,1] + 2 s[3]')
    g = be(E, (2, 1))
    results = [sf.convert(f, b) for b in (M, E, H)]
    results += [sf.multiply(f, g), sf.multiply(g, f), sf.dual_apply(be(H, (1,)), f),
                sf.antipode(f), f + g, f - g, -f, Fraction(4, 2) * f, f * Fraction(3),
                sf.convert(sf.parse_symfunc('p[2] + p[1,1]'), M),
                sf.convert(sf.parse_symfunc('1/2 p[2] + 1/2 p[1,1]'), E),
                sf.multiply(be(E, (1,)), be(P, (2,))).homogeneous_parts()[3],
                sf.from_json(sf.to_json(f)), sf.schur((3, 1)),
                sf.SymFunc(S, {(1,): Fraction(6, 3)})]
    for r in results:
        assert r.basis != P and _coefficient_types(r) == {int}
    for basis in (S, E, H):
        for d in range(7):
            for mu in partitions_of(d):
                assert all(type(c) is int for _, c in sf._row(M, basis, mu))
    # powersum keeps Fraction only where the value is not an integer
    assert _coefficient_types(sf.convert(be(M, (1, 1)), P)) == {Fraction}
    assert sf.convert(be(M, (2,)), P).coeffs == {(2,): 1}
    assert _coefficient_types(sf.convert(be(M, (2,)), P)) == {int}


def test_rational_scalars_stay_fractions():
    f, g = be(S, (2, 1)), be(H, (2, 1))
    assert type(sf.hall_pairing(f, g)) is Fraction
    assert type(sf.counit(sf.one(S))) is Fraction
    triples = sf.coproduct(f)
    assert triples and all(type(c) is Fraction for c, _, _ in triples)


def test_public_constructor_rejects_non_partitions():
    for bad in [(1, 2), (0,), (2, 0), (1.5,), (-1,), (True,), (2, True)]:
        with pytest.raises(ValueError):
            sf.SymFunc(M, {bad: 1})
        with pytest.raises(ValueError):
            sf.basis_element(S, bad)
        with pytest.raises(ValueError):
            sf.schur(bad)
    with pytest.raises(ValueError):
        sf.SymFunc('q', {(1,): 1})


##########################
# wire formats           #
##########################

def test_parse_render_round_trip():
    texts = [
        'm[2] + 2 m[1,1]',
        's[2,1]',
        '-3/2 p[2] + p[1,1]',
        'h[3] - h[2,1] + 5 h[1,1,1]',
        '0',
    ]
    for text in texts:
        f = sf.parse_symfunc(text)
        assert sf.render(f) == text


def test_parse_mixed_basis_goes_monomial():
    f = sf.parse_symfunc('s[2,1] + 2 m[1,1,1]')
    assert f.basis == M
    assert f == sf.convert(be(S, (2, 1)), M) + 2 * be(M, (1, 1, 1))


def test_parse_errors():
    for bad in ['', 'q[1]', 'm[1] +', '+ + m[1]', 'm[1,0]', '1/0 m[1]']:
        with pytest.raises(ParseError):
            sf.parse_symfunc(bad)
    with pytest.raises(ParseError, match=r'^bad SymFunc JSON: Fraction\(1, 0\)$'):
        sf.from_json({'basis': M, 'terms': [{'partition': [1], 'num': 1, 'den': 0}]})


def test_json_round_trip():
    for text in ['m[2] + 2 m[1,1]', '-1/2 p[3,1]', 's[4,2,1]']:
        f = sf.parse_symfunc(text)
        assert sf.from_json(sf.to_json(f)) == f


##########################
# property-based checks  #
##########################

partition_strategy = st.integers(0, 5).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n))))

# pairs of partitions with total size <= 5, mirroring the acceptance bound
partition_pair_strategy = st.integers(0, 5).flatmap(
    lambda d1: st.tuples(
        st.sampled_from(list(partitions_of(d1))),
        st.integers(0, 5 - d1).flatmap(
            lambda d2: st.sampled_from(list(partitions_of(d2))))))


@settings(max_examples=60, deadline=None)
@given(partition_pair_strategy,
       st.sampled_from([M, E, H, S]), st.sampled_from([M, E, H, S]))
def test_product_matches_oracle_random(pair, b1, b2):
    lam, mu = pair
    f, g = be(b1, lam), be(b2, mu)
    nvars = max(sum(lam) + sum(mu), 1)
    assert sf.monomial_expand(sf.multiply(f, g), nvars) == \
        sf.poly_mult(sf.monomial_expand(f, nvars), sf.monomial_expand(g, nvars))


@settings(max_examples=40, deadline=None)
@given(partition_strategy, st.sampled_from([M, E, H, S]))
def test_convert_preserves_element_random(lam, basis):
    x = be(basis, lam)
    nvars = max(sum(lam), 1)
    for target in (M, E, H, S, P):
        assert sf.monomial_expand(sf.convert(x, target), nvars) == \
            sf.monomial_expand(x, nvars)
