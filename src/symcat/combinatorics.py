r"""Partitions, permutations, reduced words, and coset decompositions.

These are the indexing combinatorics for every basis in the workbench:
partitions index symmetric functions and Heisenberg monomials, permutations
index nilcoxeter and group-algebra bases, and the coset decomposition of
S_{n+1} over S_n underlies the induction/restriction bimodule bases.

Partitions are plain tuples of weakly decreasing positive ints, e.g. ``(3, 1, 1)``,
with ``()`` the unique partition of 0.  Permutations are one-line tuples
``(w(1), ..., w(n))``.  Composition is ``(u∘v)(i) = u(v(i))`` everywhere.

>>> list(partitions_of(3))
[(3,), (2, 1), (1, 1, 1)]
>>> w = word_eval([1, 2, 1], 3)
>>> w
(3, 2, 1)
>>> perm_length(w)
3
>>> reduced_word(w)
[1, 2, 1]
"""

from __future__ import annotations

import itertools
from operator import gt, itemgetter

from .errors import ParseError
from .linalg import memo

__all__ = [
    'is_partition',
    'partitions_of',
    'partition_key',
    'conjugate',
    'dominates',
    'parse_partition',
    'render_partition',
    'identity_perm',
    'is_permutation',
    'perm_mult',
    'right_composer',
    'perm_inverse',
    'perm_length',
    'perm_extend',
    'transposition',
    'simple_transposition',
    'all_perms',
    'word_eval',
    'is_reduced',
    'reduced_word',
    'coset_decompose',
    'coset_rep',
    'parse_permutation',
    'render_permutation',
]


#####################
# partition helpers #
#####################

def is_partition(parts) -> bool:
    """Check for a weakly decreasing tuple of positive integers.

    >>> is_partition((3, 1, 1)) and is_partition(())
    True
    >>> is_partition((1, 2)) or is_partition((True,))
    False
    """
    return all(type(p) is int and p >= 1 for p in parts) and \
        all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


@memo(64, 'shared')
def partitions_of(n: int) -> tuple:
    """All partitions of n, in reverse lexicographic order (largest first).

    The bound is far more than the 11 sizes that a Sym computation of
    degree <= 10 reads.

    >>> partitions_of(0)
    ((),)
    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    >>> len(partitions_of(8))
    22
    """
    if n < 0:
        raise ValueError('n must be nonnegative')

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def partition_key(lam) -> tuple:
    """Sort key placing partitions in display order: by size, then reverse-lex.

    Reverse-lex among equal sizes refines dominance, which is what the
    triangularity statements for basis transitions are phrased against.

    >>> sorted([(1, 1), (2,), ()], key=partition_key)
    [(), (2,), (1, 1)]
    """
    return (sum(lam), tuple(-p for p in lam))


def conjugate(lam) -> tuple:
    """Transpose the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    >>> conjugate(())
    ()
    """
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def dominates(lam, mu) -> bool:
    """Dominance order: partial sums of lam weakly exceed those of mu.

    Both arguments must have equal size.

    >>> dominates((2, 1), (1, 1, 1))
    True
    >>> dominates((3, 1, 1, 1), (2, 2, 2)) or dominates((2, 2, 2), (3, 1, 1, 1))
    False
    """
    if sum(lam) != sum(mu):
        raise ValueError('dominance compares partitions of equal size')
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def parse_partition(text: str) -> tuple:
    """Parse a bracketed partition literal.

    >>> parse_partition('[3,1,1]')
    (3, 1, 1)
    >>> parse_partition('[]')
    ()
    """
    text = text.strip()
    if not (text.startswith('[') and text.endswith(']')):
        raise ParseError(f'partition literal must be bracketed: {text!r}')
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = tuple(int(tok) for tok in inner.split(','))
    except ValueError:
        raise ParseError(f'bad partition literal: {text!r}') from None
    if not is_partition(parts):
        raise ParseError(f'not weakly decreasing positive parts: {text!r}')
    return parts


def render_partition(lam) -> str:
    """Inverse of parse_partition.

    >>> render_partition((3, 1, 1))
    '[3,1,1]'
    >>> render_partition(())
    '[]'
    """
    return '[' + ','.join(str(p) for p in lam) + ']'


#######################
# permutation helpers #
#######################

def identity_perm(n: int) -> tuple:
    """One-line identity of S_n."""
    return tuple(range(1, n + 1))


def is_permutation(w) -> bool:
    """Check one-line validity: a bijection of {1..n}, given as ints.

    >>> is_permutation((2, 3, 1))
    True
    >>> is_permutation((1, 1, 2))
    False
    >>> is_permutation((True, 2))
    False
    """
    return all(type(x) is int for x in w) and sorted(w) == list(range(1, len(w) + 1))


def perm_mult(u, v) -> tuple:
    """Compose permutations: (u∘v)(i) = u(v(i)), one itemgetter of v's
    entries over u behind a 0 pad, so the 1-based entries index it as they are.

    >>> perm_mult((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    >>> perm_mult((), ())
    ()
    >>> perm_mult((1,), (1,))
    (1,)
    """
    if len(u) != len(v):
        raise ValueError('rank mismatch in perm_mult')
    # itemgetter of one index returns a scalar and of none raises
    return itemgetter(*v)((0,) + tuple(u)) if len(v) > 1 else tuple(u)


def right_composer(v):
    """u -> perm_mult(u, v) for a fixed v, built once to compose many u of its
    rank: `perm_mult`'s getter with v's entries moved to 0-based once, so each
    call reads u without the pad."""
    return itemgetter(*[j - 1 for j in v]) if len(v) > 1 else tuple


def perm_inverse(w) -> tuple:
    """Inverse permutation.

    >>> perm_inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def perm_length(w) -> int:
    """Inversion count, which equals the minimal word length.

    Accepts any sequence.  Below rank 7 the count is read from the
    `_inversions` memo; from rank 7 it is counted afresh, since S_7 alone
    (5,040) would evict every length the memo keeps.

    >>> perm_length((1, 2, 3, 4))
    0
    >>> perm_length([4, 3, 2, 1])
    6
    >>> perm_length(word_eval([1, 2], 3))
    2
    >>> perm_length((8, 7, 6, 5, 4, 3, 2, 1))
    28
    """
    w = tuple(w)
    return _inversions(w) if len(w) < 7 else _inversions.__wrapped__(w)


@memo(1 << 12)
def _inversions(w):
    """Inversion count of a one-line tuple.

    Only ranks below 7 enter (see `perm_length`); `verify-all` at its
    defaults fills 873 entries.
    """
    return sum(itertools.starmap(gt, itertools.combinations(w, 2)))


def perm_extend(w, n: int) -> tuple:
    """Embed w into S_n by appending fixed points.

    >>> perm_extend((2, 1), 4)
    (2, 1, 3, 4)
    """
    if len(w) > n:
        raise ValueError('cannot shrink a permutation')
    return tuple(w) + tuple(range(len(w) + 1, n + 1))


def transposition(a: int, b: int, n: int) -> tuple:
    """The transposition (a b) in S_n."""
    if not (1 <= a <= n and 1 <= b <= n and a != b):
        raise ValueError('bad transposition')
    w = list(range(1, n + 1))
    w[a - 1], w[b - 1] = b, a
    return tuple(w)


def simple_transposition(i: int, n: int) -> tuple:
    """s_i = (i, i+1) in S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f's_{i} does not exist in S_{n}')
    return transposition(i, i + 1, n)


def all_perms(n: int):
    """All elements of S_n as one-line tuples, in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


###################
# generator words #
###################

def word_eval(word, n: int) -> tuple:
    """Evaluate a word in the simple transpositions s_1..s_{n-1} of S_n.

    Letters are 1-based and multiply left to right as written:
    word [i1, i2, ..., ik] gives s_{i1} ∘ s_{i2} ∘ ... ∘ s_{ik}: letter i swaps
    positions i and i + 1 of the one-line form, in place.

    >>> word_eval([], 3)
    (1, 2, 3)
    >>> word_eval([1, 1], 3)
    (1, 2, 3)
    >>> word_eval([1, 2, 1], 3) == word_eval([2, 1, 2], 3)
    True
    """
    w = list(range(1, n + 1))
    for letter in word:
        if not 1 <= letter <= n - 1:
            raise ValueError(f'letter {letter} out of range for S_{n}')
        w[letter - 1], w[letter] = w[letter], w[letter - 1]
    return tuple(w)


def is_reduced(word, n: int) -> bool:
    """A word is reduced iff its length equals the length of its evaluation.

    >>> is_reduced([1, 2, 1], 3)
    True
    >>> is_reduced([1, 1], 3)
    False
    """
    return perm_length(word_eval(word, n)) == len(word)


def reduced_word(w) -> list:
    """A reduced word for w, by peeling off the leftmost descent.

    Deterministic: at each step the smallest i whose value i+1 precedes i in
    one-line form (a left descent) is recorded and s_i stripped from the left,
    so the word accumulates in reading order.  Stripping s_i swaps entries i
    and i+1 of the inverse in place, so the next descent is at i-1 or later.

    >>> reduced_word((1, 2, 3))
    []
    >>> reduced_word((3, 2, 1))
    [1, 2, 1]
    >>> all(word_eval(reduced_word(w), 4) == w for w in all_perms(4))
    True
    """
    pos = list(perm_inverse(w))
    word = []
    i = 1
    while i < len(pos):
        if pos[i] < pos[i - 1]:
            word.append(i)
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return word


#########################
# coset decompositions  #
#########################

@memo(1 << 8, 'shared')
def coset_rep(i: int, m: int) -> tuple:
    """The minimal coset representative s_i s_{i+1} ... s_{m-1} of S_m over S_{m-1}.

    Its one-line form fixes 1..i-1, shifts i..m-1 up by one, and sends m to i.
    For i = m this is the identity.  `verify-all` at its defaults fills 66
    entries of its memo.

    >>> coset_rep(1, 3)
    (2, 3, 1)
    >>> coset_rep(3, 3)
    (1, 2, 3)
    """
    if not 1 <= i <= m:
        raise ValueError('coset_rep index out of range')
    return tuple(range(1, i)) + tuple(range(i + 1, m + 1)) + (i,)


def coset_decompose(w):
    """Split w ∈ S_{n+1} as (s_i s_{i+1} ⋯ s_n) · w′ with w′ ∈ S_n.

    Returns (i, w′) where i = w(n+1) and w′ fixes n+1 (returned in S_n
    one-line form).  Lengths are additive: ℓ(w) = (n+1−i) + ℓ(w′).  In
    closed form, w′ is w without its last entry, every entry above i
    lowered by one: the inverse of s_i ⋯ s_n fixes 1..i−1 and lowers
    i+1..n+1 by one.

    >>> coset_decompose((1, 2, 3, 4))
    (4, (1, 2, 3))
    >>> coset_decompose(word_eval([3], 4))
    (3, (1, 2, 3))
    >>> w = (4, 2, 3, 1)
    >>> i, wp = coset_decompose(w)
    >>> perm_mult(coset_rep(i, 4), perm_extend(wp, 4)) == w
    True
    """
    if not w:
        raise ValueError('empty permutation has no coset decomposition')
    i = w[-1]
    return i, tuple([x - 1 if x > i else x for x in w[:-1]])


def parse_permutation(text: str) -> tuple:
    """Parse a one-line permutation literal like (2,3,1).

    >>> parse_permutation('(2,3,1)')
    (2, 3, 1)
    """
    text = text.strip()
    if not (text.startswith('(') and text.endswith(')')):
        raise ParseError(f'permutation literal must be parenthesized: {text!r}')
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        w = tuple(int(tok) for tok in inner.split(','))
    except ValueError:
        raise ParseError(f'bad permutation literal: {text!r}') from None
    if not is_permutation(w):
        raise ParseError(f'not a bijection of 1..n: {text!r}')
    return w


def render_permutation(w) -> str:
    """Inverse of parse_permutation.

    >>> render_permutation((2, 3, 1))
    '(2,3,1)'
    """
    return '(' + ','.join(str(x) for x in w) + ')'


if __name__ == '__main__':
    import doctest
    doctest.testmod()
