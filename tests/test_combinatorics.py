"""Tests for partitions, permutations, words, and coset decompositions."""

import itertools

import pytest
from hypothesis import given, strategies as st

import symcat.combinatorics as cb
from symcat.combinatorics import (
    all_perms,
    conjugate,
    coset_decompose,
    coset_rep,
    dominates,
    identity_perm,
    is_partition,
    is_permutation,
    is_reduced,
    parse_partition,
    parse_permutation,
    partition_key,
    partitions_of,
    perm_extend,
    perm_inverse,
    perm_length,
    perm_mult,
    reduced_word,
    render_partition,
    render_permutation,
    right_composer,
    simple_transposition,
    word_eval,
)
from symcat.errors import ParseError
from symcat.nilcoxeter import _times

from conftest import compose_by_definition


def brute_force_partitions(n):
    """Independent enumeration: all weakly decreasing positive tuples summing to n."""
    if n == 0:
        return {()}
    found = set()
    # compositions of n, then keep the sorted ones
    for cuts in itertools.product([0, 1], repeat=n - 1):
        comp = []
        run = 1
        for c in cuts:
            if c:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        if all(comp[i] >= comp[i + 1] for i in range(len(comp) - 1)):
            found.add(tuple(comp))
    return found


def test_partitions_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_agrees_with_brute_force():
    for n in range(9):
        ps = partitions_of(n)
        assert len(ps) == len(set(ps)), 'duplicates'
        assert set(ps) == brute_force_partitions(n)
        assert all(sum(p) == n for p in ps)
    assert len(partitions_of(8)) == 22


def test_partitions_reverse_lex_order():
    for n in range(9):
        ps = partitions_of(n)
        # reverse lexicographic: earlier entries are lexicographically larger
        assert list(ps) == sorted(ps, key=lambda p: partition_key(p))


def test_display_order_refines_dominance():
    for n in range(2, 9):
        ps = partitions_of(n)
        for i, lam in enumerate(ps):
            for mu in ps[i + 1:]:
                # if mu strictly dominates lam, order would be violated
                assert not (dominates(mu, lam) and mu != lam) or not dominates(lam, mu) or lam == mu
                if dominates(mu, lam) and mu != lam:
                    pytest.fail(f'{mu} dominates {lam} but is listed later')


def test_conjugate_involution():
    for n in range(8):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n


def test_perm_length_examples():
    assert perm_length(identity_perm(4)) == 0
    for n in range(1, 7):
        w0 = tuple(range(n, 0, -1))
        assert perm_length(w0) == n * (n - 1) // 2
    assert perm_length(word_eval([1, 2], 3)) == 2


def test_perm_length_is_the_inversion_count():
    for w in all_perms(6):
        assert perm_length(w) == sum(1 for a, b in itertools.combinations(w, 2) if a > b)


def test_rank_seven_lengths_leave_the_memo_alone(fresh_memos):
    # S_7 (5,040) is larger than the memo (4,096): its lengths are counted afresh
    s5 = list(all_perms(5))
    for w in s5:
        perm_length(w)
    before = cb._inversions.cache_info()
    for w in all_perms(7):
        assert perm_length(w) == sum(1 for a, b in itertools.combinations(w, 2) if a > b)
    after = cb._inversions.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)
    for w in s5:
        perm_length(w)
    assert cb._inversions.cache_info().hits == after.hits + len(s5)


def test_perm_length_accepts_any_sequence():
    assert perm_length([3, 1, 2]) == perm_length((3, 1, 2)) == 2
    assert perm_length(range(1, 5)) == 0


def test_word_eval_examples():
    assert word_eval([], 3) == (1, 2, 3)
    assert word_eval([1, 1], 3) == (1, 2, 3)
    assert word_eval([1, 2, 1], 3) == word_eval([2, 1, 2], 3)
    with pytest.raises(ValueError):
        word_eval([3], 3)


def test_reduced_word_round_trip():
    for n in range(1, 7):
        for w in all_perms(n):
            word = reduced_word(w)
            assert word_eval(word, n) == w
            assert len(word) == perm_length(w)
            assert is_reduced(word, n)


def perm_mult_word_eval(word, n):
    """Oracle: compose s_i on the right, one `perm_mult` per letter."""
    w = identity_perm(n)
    for letter in word:
        w = perm_mult(w, simple_transposition(letter, n))
    return w


def perm_mult_reduced_word(w):
    """Oracle: recompute the inverse and strip the leftmost left descent
    s_i with `perm_mult`, one letter at a time."""
    n = len(w)
    word = []
    while True:
        pos = perm_inverse(w)
        left_descents = [i for i in range(1, n) if pos[i] < pos[i - 1]]
        if not left_descents:
            return word
        word.append(left_descents[0])
        w = perm_mult(simple_transposition(left_descents[0], n), w)


def test_in_place_words_match_the_perm_mult_definitions():
    for n in range(8):
        for w in all_perms(n):
            word = reduced_word(w)
            assert word == perm_mult_reduced_word(w)
            # a non-reduced word too: the letters again, reversed
            for letters in (word, word + word[::-1]):
                assert word_eval(letters, n) == perm_mult_word_eval(letters, n)


@pytest.mark.parametrize('letter, n', [(0, 3), (3, 3), (0, 0), (1, 1), (-1, 4)])
def test_word_eval_rejects_a_letter_out_of_range(letter, n):
    with pytest.raises(ValueError, match=rf'^letter {letter} out of range for S_{n}$'):
        word_eval([1, letter] if n > 1 else [letter], n)


def test_right_composer_is_perm_mult_on_the_right():
    # both kernels share one itemgetter rule, so each is checked against the definition
    for n in range(7):
        perms = list(all_perms(n))
        for v in perms:
            times_v = right_composer(v)
            expected = [compose_by_definition(u, v) for u in perms]
            assert list(map(times_v, perms)) == expected
            assert [perm_mult(u, v) for u in perms] == expected
    assert perm_mult([2, 3, 1], (3, 1, 2)) == (1, 2, 3)


@pytest.mark.parametrize('u, v', [((1,), ()), ((), (1,)), ((2, 1), (1, 2, 3))])
def test_perm_mult_rejects_a_rank_mismatch(u, v):
    with pytest.raises(ValueError, match=r'^rank mismatch in perm_mult$'):
        perm_mult(u, v)


def test_longest_element_s3():
    assert len(reduced_word((3, 2, 1))) == 3


def test_coset_decompose_basics():
    assert coset_decompose((1, 2, 3, 4)) == (4, (1, 2, 3))
    # w = s_n in S_{n+1}
    for n in range(1, 5):
        i, wp = coset_decompose(simple_transposition(n, n + 1))
        assert i == n and wp == identity_perm(n)


def test_coset_decompose_lengths_additive_s4():
    n = 3
    for w in all_perms(n + 1):
        i, wp = coset_decompose(w)
        assert perm_length(w) == (n + 1 - i) + perm_length(wp)
        assert perm_mult(coset_rep(i, n + 1), perm_extend(wp, n + 1)) == w


def test_coset_decompose_closed_form_matches_the_coset_rep_product():
    for m in range(1, 8):
        for w in all_perms(m):
            i = w[-1]
            assert coset_decompose(w) == (i, perm_mult(perm_inverse(coset_rep(i, m)), w)[:-1])


def test_coset_decompose_bijection():
    for n in range(1, 6):
        seen = set()
        for w in all_perms(n + 1):
            i, wp = coset_decompose(w)
            assert 1 <= i <= n + 1
            seen.add((i, wp))
        assert len(seen) == (n + 1) * len(list(all_perms(n)))


def _check_table_entries(table, n, ranks):
    """The table of S_n at the given ranks against perm_mult and perm_length, and
    its nilCoxeter rows against the product rule `_times` (None for 0)."""
    gens = {j: simple_transposition(j, n) for j in range(1, n)}
    for r in ranks:
        w = table.perms[r]
        assert table.length[r] == perm_length(w)
        for j, s in gens.items():
            assert table.perms[table.left[j][r]] == perm_mult(s, w)
            assert table.perms[table.right[j][r]] == perm_mult(w, s)
            for row, product in ((table.nil_left[j], _times(s, w)),
                                 (table.nil_right[j], _times(w, s))):
                assert (None if row[r] is None else table.perms[row[r]]) == product


@pytest.mark.parametrize('n', range(6))
def test_perm_table_matches_the_tuple_kernels(fresh_memos, n):
    table = cb.perm_table(n)
    assert table.perms == tuple(all_perms(n))
    assert table.rank == {w: r for r, w in enumerate(all_perms(n))}
    assert set(table.left) == set(table.right) == set(range(1, n))
    assert set(table.nil_left) == set(table.nil_right) == set(range(1, n))
    _check_table_entries(table, n, range(len(table.perms)))
    # s_j r_i = r_i' rho, with rho in S_{n-1} spelled by the slide's reduced steps
    assert set(table.slide) == set(itertools.product(range(1, n), range(1, n + 1)))
    for (j, i), (i2, steps) in table.slide.items():
        rho = word_eval(steps[::-1], n)
        assert rho[-1] == n and perm_length(rho) == len(steps)
        assert perm_mult(coset_rep(i2, n), rho) == perm_mult(simple_transposition(j, n),
                                                              coset_rep(i, n))


def test_perm_table_spot_check_at_rank_6(fresh_memos):
    table = cb.perm_table(6)
    assert len(table.perms) == len(table.rank) == 720 and table.perms[-1] == (6, 5, 4, 3, 2, 1)
    _check_table_entries(table, 6, range(0, 720, 37))
    assert cb.perm_table.cache_info().maxsize == 8


@given(st.permutations(list(range(1, 7))))
def test_inverse_and_composition(one_line):
    w = tuple(one_line)
    assert perm_mult(w, perm_inverse(w)) == identity_perm(6)
    assert perm_mult(perm_inverse(w), w) == identity_perm(6)
    assert perm_length(perm_inverse(w)) == perm_length(w)


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_length_subadditive(u, v):
    u, v = tuple(u), tuple(v)
    assert perm_length(perm_mult(u, v)) <= perm_length(u) + perm_length(v)


def test_partition_literals():
    assert parse_partition('[3,1,1]') == (3, 1, 1)
    assert parse_partition('[]') == ()
    assert render_partition((3, 1, 1)) == '[3,1,1]'
    for bad in ['3,1', '[1,2]', '[0]', '[a]']:
        with pytest.raises(ParseError):
            parse_partition(bad)


def test_permutation_literals():
    assert parse_permutation('(2,3,1)') == (2, 3, 1)
    assert render_permutation((2, 3, 1)) == '(2,3,1)'
    with pytest.raises(ParseError):
        parse_permutation('(1,3)')


def test_is_partition():
    assert is_partition(())
    assert is_partition((5, 5, 2))
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))
    assert not is_partition((True,)) and not is_partition((2, True))


def test_is_permutation_takes_ints_only():
    assert is_permutation((2, 3, 1)) and is_permutation(())
    assert not is_permutation((1, 1))
    assert not is_permutation((True, 2))
    assert not is_permutation((1.0, 2))
