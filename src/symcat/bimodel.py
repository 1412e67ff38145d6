r"""Rational symmetric-group algebras and their induction/restriction bimodules.

A_n is the group algebra of S_n over the rationals.  A word of up/down strands
becomes a composite bimodule: each up step tensors with A_{n+1} as an
(A_{n+1}, A_n)-bimodule (induction), each down step with A_{n+1} as an
(A_n, A_{n+1})-bimodule (restriction), tensor products taken over the shared
subalgebras.  Every such composite has a canonical basis built from minimal
coset representatives with one free group-algebra factor at the base, and
diagram_to_map turns a planar diagram into the corresponding bimodule map,
stored as one sparse row per basis tensor, with basis tensors keyed by
their integer rank in the canonical basis.  verify_local_relation /
mackey_check replay the graphical relations as identities of such maps, and
induced_character_decomposition provides the character-theoretic
multiplicity oracle.  Arithmetic is integer-first: coefficients are exact,
int unless non-integral (then Fraction, as the 1/n! of e(n)).

>>> ga_product(symmetrizer(2), symmetrizer(2)) == symmetrizer(2)
True
>>> ga_product(symmetrizer(2), antisymmetrizer(2)).is_zero()
True
"""

from __future__ import annotations

import itertools
import math

from collections import Counter, namedtuple
from fractions import Fraction
from operator import methodcaller

from .combinatorics import (
    all_perms,
    coset_decompose,
    coset_rep,
    identity_perm,
    is_permutation,
    partitions_of,
    perm_extend,
    perm_inverse,
    perm_length,
    perm_mult,
    render_permutation,
    right_composer,
    transposition,
)
from .diagcat import Diagram, Morphism, compose, parse_diagram
from .errors import (
    BoundExceeded,
    RankMismatch,
    Report,
    UnrealizableAtRank,
    VerificationFailure,
    report_json,
)
from .linalg import MEMOS, LinComb, common_denominator, matrix_rank, memo, render_terms, scalar

__all__ = [
    'GroupAlgElem',
    'ga_unit',
    'ga_perm',
    'ga_product',
    'symmetrizer',
    'antisymmetrizer',
    'render_groupalg',
    'right_mult_matrix',
    'matrix_rank',
    'BimodulePath',
    'path_from_signature',
    'tensor_basis',
    'canonicalize',
    'BimoduleElem',
    'LinearMapRep',
    'diagram_to_map',
    'matrix_text',
    'verify_local_relation',
    'verify_local_relations',
    'LOCAL_RELATIONS',
    'MAX_LEVEL',
    'MAX_K',
    'mackey_check',
    'induced_character_decomposition',
    'report_json',
]


class GroupAlgElem(LinComb):
    """Rational group-algebra element: sparse permutation -> int-or-Fraction map."""

    __slots__ = ('n',)
    _TAGS = ('n',)
    _RATIONAL = True
    _MISMATCH = RankMismatch

    def __new__(cls, n, coeffs):
        for w in coeffs:
            if len(w) != n or not is_permutation(w):
                raise ValueError(f'{w} is not a permutation of rank {n}')
        return cls._new(n, coeffs)

    def __mul__(self, other):
        if isinstance(other, GroupAlgElem):
            return ga_product(self, other)
        return NotImplemented

    def __repr__(self):
        return f'GroupAlgElem({render_groupalg(self)!r})'


def ga_unit(n):
    return GroupAlgElem(n, {identity_perm(n): 1})


def ga_perm(w):
    return GroupAlgElem(len(w), {tuple(w): 1})


def ga_product(a, b):
    """Linear extension of group multiplication, on int numerators over the LCMs;
    each right factor v is composed through its `right_composer`, built once.

    >>> s1 = ga_perm((2, 1))
    >>> ga_product(s1, s1) == ga_unit(2)
    True
    """
    if a.n != b.n:
        raise RankMismatch('group-algebra ranks differ')
    a_nums, a_den = common_denominator(a.coeffs.values())
    b_nums, b_den = common_denominator(b.coeffs.values())
    right = [(right_composer(v), cv) for v, cv in zip(b.coeffs, b_nums)]
    out = {}
    for u, cu in zip(a.coeffs, a_nums):
        for times_v, cv in right:
            w = times_v(u)
            out[w] = out.get(w, 0) + cu * cv
    den = a_den * b_den
    return GroupAlgElem._new(a.n, out if den == 1 else
                             {w: Fraction(c, den) for w, c in out.items()})


def symmetrizer(n):
    """e(n): the averaging idempotent onto the trivial isotypic component."""
    c = Fraction(1, math.factorial(n))
    return GroupAlgElem._new(n, {w: c for w in all_perms(n)})


def antisymmetrizer(n):
    """e'(n): the signed averaging idempotent onto the sign component."""
    c = Fraction(1, math.factorial(n))
    return GroupAlgElem._new(
        n, {w: (c if perm_length(w) % 2 == 0 else -c) for w in all_perms(n)})


def render_groupalg(a):
    return render_terms((render_permutation(w), c) for w, c in sorted(a.coeffs.items()))


def right_mult_matrix(a):
    """Dense matrix of x -> x*a on A_n over the permutation basis, filled one
    term v of a at a time through its `right_composer` (v -> u*v is injective)."""
    basis = list(all_perms(a.n))
    index = {w: i for i, w in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for v, c in a.coeffs.items():
        times_v = right_composer(v)
        for row, u in zip(rows, basis):
            row[index[times_v(u)]] = c
    return rows


#######################
# composite bimodules #
#######################


class BimodulePath:
    """Rank walk n_0, n_1, ..., n_k of a composite induction/restriction bimodule.

    n_0 is the base rank (rightmost tensor factor acts on A_{n_0}); step j
    joins n_{j-1} to n_j and carries the group algebra of the larger rank.
    Signature position p (0-based from the left) corresponds to step k - p,
    so the leftmost strand is the outermost functor.
    """

    __slots__ = ('levels',)

    def __init__(self, levels):
        levels = tuple(int(x) for x in levels)
        if not levels:
            raise ValueError('a path needs at least the base rank')
        if any(x < 0 for x in levels):
            raise UnrealizableAtRank(f'negative rank in path {levels}')
        for a, b in zip(levels, levels[1:]):
            if abs(a - b) != 1:
                raise ValueError(f'adjacent ranks must differ by 1: {levels}')
        object.__setattr__(self, 'levels', levels)

    def __setattr__(self, *a):
        raise AttributeError('BimodulePath is immutable')

    def __eq__(self, other):
        return isinstance(other, BimodulePath) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        return f'BimodulePath({list(self.levels)})'

    @property
    def base(self):
        return self.levels[0]

    @property
    def steps(self):
        return len(self.levels) - 1

    def step_of_position(self, p):
        return self.steps - p

    def is_up(self, j):
        return self.levels[j] > self.levels[j - 1]

    def carrier(self, j):
        return max(self.levels[j], self.levels[j - 1])


@memo(1 << 10, 'shared')
def path_from_signature(sig, base):
    """Levels of the composite bimodule for a strand word at a base rank.

    The word is read right to left from the base: U steps up (induction),
    D steps down (restriction).  BimodulePath is immutable, so one path is
    shared by every caller; a raised error is not memoised, and a bad word
    raises again on every call.  `verify-all` at its defaults fills 181
    entries.

    >>> path_from_signature('DU', 2).levels
    (2, 3, 2)
    """
    levels = [base]
    for ch in reversed(sig):
        if ch == 'U':
            levels.append(levels[-1] + 1)
        elif ch == 'D':
            levels.append(levels[-1] - 1)
        else:
            raise ValueError(f'bad signature symbol {ch!r}')
        if levels[-1] < 0:
            raise UnrealizableAtRank(
                f'signature {sig!r} drops below rank 0 at base {base}')
    return BimodulePath(levels)


@memo(1 << 10, 'shared')
def _layout(path):
    """(is_up, carrier rank) of each tensor slot of a path, leftmost first.

    `verify-all` at its defaults fills 180 entries.
    """
    return tuple((path.is_up(j), path.carrier(j))
                 for j in map(path.step_of_position, range(path.steps)))


def tensor_basis(path):
    """Ordered canonical basis: coset representatives in the up slots, identity
    in the down slots, a free S_{n_0} factor at the end.

    Position r of this list is the rank r of `_rank` and `_unrank`, which
    read it arithmetically; the list itself is built afresh on each call.

    >>> len(tensor_basis(path_from_signature('DU', 2)))
    6
    >>> len(tensor_basis(path_from_signature('UD', 2)))
    4
    """
    choices = [[coset_rep(i, m) for i in range(1, m + 1)] if up else [identity_perm(m)]
               for up, m in _layout(path)]
    choices.append(list(all_perms(path.base)))
    return [tuple(elem) for elem in itertools.product(*choices)]


def _size(path):
    """len(tensor_basis(path)), without building it."""
    return math.prod(m for up, m in _layout(path) if up) * math.factorial(path.base)


def _rank(path, elem):
    """Position of a canonical tensor in tensor_basis(path): a mixed radix of
    the coset index g[-1] of each up slot g (radix its rank m), then the
    lexicographic index of the free factor.

    >>> path = path_from_signature('DU', 2)
    >>> [_rank(path, e) for e in tensor_basis(path)]
    [0, 1, 2, 3, 4, 5]
    """
    r = 0
    for g, (up, m) in zip(elem, _layout(path)):
        if up:
            r = r * m + g[-1] - 1
    rest = sorted(elem[-1])
    for x in elem[-1]:
        j = rest.index(x)
        r = r * len(rest) + j
        del rest[j]
    return r


def _unrank(path, r):
    """The tensor at position r of tensor_basis(path); inverse of `_rank`.

    >>> path = path_from_signature('DU', 2)
    >>> [_unrank(path, r) for r in range(6)] == tensor_basis(path)
    True
    """
    digits = []
    for radix in range(1, path.base + 1):  # the free factor's Lehmer code, last digit first
        r, j = divmod(r, radix)
        digits.append(j)
    digits.reverse()
    rest = list(range(1, path.base + 1))
    w = tuple([rest.pop(j) for j in digits])
    slots = []
    for up, m in reversed(_layout(path)):
        if up:
            r, j = divmod(r, m)
            slots.append(coset_rep(j + 1, m))
        else:
            slots.append(identity_perm(m))
    slots.reverse()
    slots.append(w)
    return tuple(slots)


def canonicalize(path, elem):
    """Rewrite a pure tensor to the canonical basis by pushing group elements
    rightward across the tensor-over-subalgebra relations."""
    slots = []
    push = ()  # the identity of S_0, which extends to every identity
    for g, (up, m) in zip(elem, _layout(path)):
        if push:
            g = perm_mult(perm_extend(push, m), g)
        if up:
            i, push = coset_decompose(g)
            slots.append(coset_rep(i, m))
        else:
            push = g
            slots.append(identity_perm(m))
    w = elem[-1]
    if push:
        w = perm_mult(push, w)
    slots.append(w)
    return tuple(slots)


class BimoduleElem(LinComb):
    """Sparse rational combination of canonical tensor-basis elements."""

    __slots__ = ('path',)
    _TAGS = ('path',)
    _RATIONAL = True

    def __new__(cls, path, coeffs):
        ranks = [m for _up, m in _layout(path)]
        ranks.append(path.base)
        merged = {}
        for elem, c in coeffs.items():
            if len(elem) != len(ranks) or not all(
                    len(g) == m and is_permutation(g) for g, m in zip(elem, ranks)):
                raise ValueError(f'{elem!r} is not a tensor of permutations of ranks {ranks}')
            elem = canonicalize(path, elem)
            merged[elem] = merged.get(elem, 0) + c
        return cls._new(path, merged)


####################################
# diagram slices as bimodule maps  #
####################################


def _slice_images(path_below, path_above, sig_below, slice_, elem):
    """Images of a pure tensor under one slice; each has coefficient 1."""
    kind, i = slice_
    p = i - 1
    slots = list(elem[:-1])
    w = elem[-1]
    k = path_below.steps
    if kind == 'x':
        orient = sig_below[p:p + 2]
        j_right = path_below.step_of_position(p + 1)
        right_entry = path_below.levels[j_right - 1]
        if orient == 'UU':
            b = right_entry
            t = transposition(b + 1, b + 2, b + 2)
            g = perm_mult(perm_mult(slots[p], perm_extend(slots[p + 1], b + 2)), t)
            slots[p], slots[p + 1] = g, identity_perm(b + 1)
            return [tuple(slots) + (w,)]
        if orient == 'DD':
            c = right_entry
            t = transposition(c - 1, c, c)
            g = perm_mult(perm_mult(t, perm_extend(slots[p], c)), slots[p + 1])
            slots[p], slots[p + 1] = identity_perm(c - 1), g
            return [tuple(slots) + (w,)]
        if orient == 'DU':
            a = right_entry
            g = perm_mult(slots[p], slots[p + 1])
            if g[a] == a + 1:
                return []
            idx, rest = coset_decompose(g)
            slots[p], slots[p + 1] = coset_rep(idx, a), rest
            return [tuple(slots) + (w,)]
        # UD: include A_a (x)_{A_{a-1}} A_a into A_{a+1} around the transposition
        a = right_entry
        t = transposition(a, a + 1, a + 1)
        g = perm_mult(perm_mult(perm_extend(slots[p], a + 1), t),
                      perm_extend(slots[p + 1], a + 1))
        slots[p], slots[p + 1] = g, identity_perm(a + 1)
        return [tuple(slots) + (w,)]
    if kind in ('cup+', 'cup-'):
        seam = path_below.levels[k - p]
        if kind == 'cup+':
            ins = [(identity_perm(seam + 1), identity_perm(seam + 1))]
        else:
            ins = [(coset_rep(idx, seam), perm_inverse(coset_rep(idx, seam)))
                   for idx in range(1, seam + 1)]
        return [tuple(slots[:p]) + pair + tuple(slots[p:]) + (w,) for pair in ins]
    # caps
    j_right = path_below.step_of_position(p + 1)
    c_level = path_below.levels[j_right - 1]
    if kind == 'cap+':
        g = perm_mult(slots[p], slots[p + 1])
        if g[c_level] != c_level + 1:
            return []
        g = g[:c_level]
    else:
        g = perm_mult(slots[p], slots[p + 1])
    del slots[p:p + 2]
    if p < len(slots):
        m_next = path_above.carrier(path_above.step_of_position(p))
        slots[p] = perm_mult(perm_extend(g, m_next), slots[p])
    else:
        w = perm_mult(g, w)
    return [tuple(slots) + (w,)]


@memo(1 << 10)
def _frame(path_below, slice_):
    """(signature below, path above) of one slice on a path.

    `verify-all` at its defaults fills 183 entries.
    """
    sig_below = ''.join('U' if up else 'D' for up, _m in _layout(path_below))
    return sig_below, path_from_signature(Diagram(sig_below, (slice_,)).codomain,
                                          path_below.base)


def _slice_ranks(path_below, slice_, r):
    """The ranks in the path above of the canonical images of basis tensor r
    under one slice: canonicalize applied to each of _slice_images, which
    all have coefficient 1."""
    sig_below, path_above = _frame(path_below, slice_)
    return tuple(_rank(path_above, canonicalize(path_above, image)) for image in
                 _slice_images(path_below, path_above, sig_below, slice_,
                               _unrank(path_below, r)))


SliceTableInfo = namedtuple('SliceTableInfo', 'tables maxsize currsize')


class _SliceTables:
    """One table per (path, slice): a list indexed by domain rank whose entry
    r is None until diagram_to_map first reads it, and then the tuple
    _slice_ranks(path, slice, r).  One slice on one basis tensor is thus
    rewritten once across diagrams, relation sides and queries.

    The bound counts entries, filled or not, over all tables; a table that
    would pass it first drops every table (so a table larger than the bound
    is kept alone).  The bound is more than the 80,640 entries (8! under x1
    and under x2) of the level-5 braid check, which runs in 43 MB ru_maxrss
    with both tables full.  `cache_info` counts the
    filled entries as `currsize`; `verify-all` at its defaults fills 2,719
    entries and `bimod verify-relations --max-level 4 --relation braid`
    11,820.
    """

    def __init__(self, bound):
        self.maxsize = bound
        self.cache_clear()

    def cache_clear(self):
        self.tables = {}
        self.slots = 0

    def cache_info(self):
        return SliceTableInfo(len(self.tables), self.maxsize,
                              sum(len(t) - t.count(None) for t in self.tables.values()))

    def __call__(self, path, slice_):
        key = (path.levels, slice_)
        table = self.tables.get(key)
        if table is None:
            size = _size(path)
            if self.slots + size > self.maxsize:
                self.cache_clear()
            table = self.tables[key] = [None] * size
            self.slots += size
        return table


_slice_table = _SliceTables(1 << 17)
MEMOS[_slice_table] = 'kernel'


def _clean_row(pairs):
    """{rank: coefficient} of the nonzero (rank, coefficient) pairs, each
    coefficient an int when integral (`scalar`, which refuses floats)."""
    row = {}
    for r, c in pairs:
        if type(c) is not int:
            c = scalar(c)
        if c:
            row[r] = c
    return row


class LinearMapRep:
    """Exact bimodule map: rows[r] maps the codomain ranks that domain basis
    tensor r, in tensor_basis order, reaches to their nonzero coefficients.

    Coefficients are int when integral, else Fraction.  `images` (one
    BimoduleElem per domain tensor) and `matrix` (dense, row r holding the
    coordinates of images[r]) are views built on each read.
    """

    __slots__ = ('domain', 'codomain', 'rows')

    def __new__(cls, domain, codomain, matrix):
        n_dom, n_cod = _size(domain), _size(codomain)
        rows = [tuple(row) for row in matrix]
        if len(rows) != n_dom or any(len(row) != n_cod for row in rows):
            raise ValueError(f'matrix shape is not {n_dom} x {n_cod}')
        return cls._new(domain, codomain, tuple(_clean_row(enumerate(row)) for row in rows))

    @classmethod
    def _new(cls, domain, codomain, rows):
        """Internal constructor: trusts one clean codomain row per domain tensor."""
        rep = object.__new__(cls)
        object.__setattr__(rep, 'domain', domain)
        object.__setattr__(rep, 'codomain', codomain)
        object.__setattr__(rep, 'rows', rows)
        return rep

    def __setattr__(self, *a):
        raise AttributeError('LinearMapRep is immutable')

    def __eq__(self, other):
        return (isinstance(other, LinearMapRep) and self.domain == other.domain
                and self.codomain == other.codomain and self.rows == other.rows)

    def __repr__(self):
        return (f'LinearMapRep({self.domain!r} -> {self.codomain!r}, '
                f'{len(self.rows)} x {_size(self.codomain)})')

    @property
    def images(self):
        cod = self.codomain
        return tuple(BimoduleElem._new(cod, {_unrank(cod, c): x for c, x in row.items()})
                     for row in self.rows)

    @property
    def matrix(self):
        zeros = [0] * _size(self.codomain)
        out = []
        for row in self.rows:
            cells = zeros.copy()
            for c, x in row.items():
                cells[c] = x
            out.append(tuple(cells))
        return tuple(out)

    @classmethod
    def identity(cls, path):
        return cls._new(path, path, tuple({r: 1} for r in range(_size(path))))

    @classmethod
    def zero(cls, domain, codomain):
        return cls._new(domain, codomain, ({},) * _size(domain))

    def is_identity(self):
        return self.domain == self.codomain and all(
            row == {r: 1} for r, row in enumerate(self.rows))

    def is_zero(self):
        return not any(self.rows)


def diagram_to_map(m, base_rank):
    """Exact map of a diagram (or rational combination) at a base rank.

    Each term moves the paths from every domain rank through its slice
    tables at once, as two flat lists: the rank each path started from and
    the rank it has reached.  A slice sends a path to each of its images,
    which have coefficient 1, so a term's row entries are path counts.

    >>> circle = parse_diagram('sig:; cup+1; cap+1')
    >>> diagram_to_map(circle, 2).is_identity()
    True
    """
    if isinstance(m, Diagram):
        m = Morphism.from_diagram(m)
    dom_path = path_from_signature(m.domain, base_rank)
    cod_path = path_from_signature(m.codomain, base_rank)
    size = _size(dom_path)
    rows = None
    for diag, coeff in m.terms.items():
        starts = ends = range(size)
        for q, sl in enumerate(diag.slices):
            path = path_from_signature(diag.sig_below(q), base_rank)
            table = _slice_table(path, sl)
            images = list(map(table.__getitem__, ends))
            if None in images:
                for r in ends:
                    if table[r] is None:
                        table[r] = _slice_ranks(path, sl, r)
                images = list(map(table.__getitem__, ends))
            counts = list(map(len, images))
            if counts.count(1) != len(counts):
                starts = list(itertools.chain.from_iterable(map(itertools.repeat, starts, counts)))
            ends = list(itertools.chain.from_iterable(images))
        if len(m.terms) == 1 and type(starts) is range:  # one path from each rank
            return LinearMapRep._new(dom_path, cod_path, tuple({end: coeff} for end in ends))
        rows = rows or [{} for _ in range(size)]
        for (start, end), c in Counter(zip(starts, ends)).items():
            row = rows[start]
            row[end] = row.get(end, 0) + coeff * c
    if rows is None:  # the zero morphism
        return LinearMapRep.zero(dom_path, cod_path)
    return LinearMapRep._new(dom_path, cod_path,
                             tuple(_clean_row(row.items()) for row in rows))


def matrix_text(rep):
    """Plain-text numerator/denominator grid, one matrix row per line."""
    zeros = ['0/1'] * _size(rep.codomain)
    lines = []
    for row in rep.rows:
        cells = zeros.copy()
        for c, x in row.items():
            cells[c] = f'{x.numerator}/{x.denominator}'
        lines.append(' '.join(cells))
    return '\n'.join(lines)


######################
# relation checking  #
######################

LOCAL_RELATIONS = ('up-double', 'braid', 'mixed-double', 'circle-curl')

# Ceilings checked before any work, timed on a 2-core VM.  verify_local_relation:
# the braid family maps (n+3)! basis tensors, and each level multiplies the
# tensor count by n+4.  `bimod verify-relations --max-level 4 --relation braid`
# takes 0.3-0.5 s and 21 MB ru_maxrss; level 5, by a direct call, takes
# 1.3-1.6 s of CPU and 43 MB, with its slice tables full.  That fits the 2 s
# budget of one ceiling step, but a higher ceiling changes the outputs that
# CI compares (level 5 is an error exit today), so it stays at 4 until a
# change of its own raises it.  mackey_check: (k!)^2 distinct canonical
# forms and k (k!)^2 comparisons per side; `bimod mackey --k 5` takes 0.25-0.46 s and
# the call itself 0.14 s, but k = 6 is about 43 times the work of k = 5
# (3.1 M comparisons per side, 518,400 canonical forms; about 6 s by that
# ratio), over the 2 s budget, so the rank ceiling stays at 5.
MAX_LEVEL = 4
MAX_K = 5


def _map_or_zero(m, base):
    """diagram_to_map, except a composite factoring through an unrealizable
    intermediate rank is the zero map (the bimodule there is the zero module)."""
    try:
        return diagram_to_map(m, base)
    except UnrealizableAtRank:
        dom = path_from_signature(m.domain, base)
        cod = path_from_signature(m.codomain, base)
        return LinearMapRep.zero(dom, cod)


def _compare(lhs, rhs, detail):
    """(lhs == rhs, detail), the detail naming the first differing entry."""
    if lhs == rhs:
        return True, detail
    for r, (left, right) in enumerate(zip(lhs.rows, rhs.rows)):
        differ = [c for c in left.keys() | right.keys() if left.get(c, 0) != right.get(c, 0)]
        if differ:
            c = min(differ)
            return False, f'{detail}; first difference at entry ({r}, {c}): ' \
                          f'{left.get(c, 0)} != {right.get(c, 0)}'
    return False, detail + '; first difference at '


@memo(16)
def _relation_morphism(text):
    """A slice script of verify_local_relation, parsed once; its nine fixed
    texts are the only keys."""
    return Morphism.from_diagram(parse_diagram(text))


@memo(1)
def _identity_minus_cap_cup():
    """The right side of the du-double check, built once."""
    return _relation_morphism('sig:DU') - compose_morphisms('sig:DU; cap+1', 'sig:; cup+1')


def verify_local_relation(rel, n, max_level=3):
    """Check one graphical relation family as exact matrices at base rank n.

    Families: 'up-double' (double crossing on two up strands = identity),
    'braid' (crossings satisfy the braid relation), 'mixed-double' (down-up
    double crossing = identity minus cap;cup, up-down double crossing =
    identity), 'circle-curl' (counterclockwise circle = 1, left curl = 0).
    """
    if rel not in LOCAL_RELATIONS:
        raise ValueError(f'unknown relation {rel!r}; choose from {LOCAL_RELATIONS}')
    top = min(max_level, MAX_LEVEL)
    if not 0 <= n <= top:
        raise BoundExceeded(f'level {n} outside 0..{top}')
    report = Report(relation=rel, level=n)
    mor = _relation_morphism
    if rel == 'up-double':
        report.check('up-double', *_compare(
            diagram_to_map(mor('sig:UU; x1; x1'), n),
            LinearMapRep.identity(path_from_signature('UU', n)),
            'double crossing on UU equals the identity'))
    elif rel == 'braid':
        report.check('braid', *_compare(
            diagram_to_map(mor('sig:UUU; x1; x2; x1'), n),
            diagram_to_map(mor('sig:UUU; x2; x1; x2'), n),
            'x1 x2 x1 = x2 x1 x2 on UUU'))
    elif rel == 'mixed-double':
        lhs = _map_or_zero(mor('sig:DU; x1; x1'), n)
        report.check('du-double', *_compare(
            lhs, diagram_to_map(_identity_minus_cap_cup(), n),
            'double crossing on DU equals identity minus cap;cup'))
        try:
            ud_path = path_from_signature('UD', n)
        except UnrealizableAtRank:
            report.check('ud-double', True, 'double crossing on UD equals the identity '
                                            '(zero module at this rank: vacuous)')
        else:
            report.check('ud-double', *_compare(
                diagram_to_map(mor('sig:UD; x1; x1'), n),
                LinearMapRep.identity(ud_path),
                'double crossing on UD equals the identity'))
    else:
        report.check('ccw-circle', *_compare(
            diagram_to_map(mor('sig:; cup+1; cap+1'), n),
            LinearMapRep.identity(path_from_signature('', n)),
            'counterclockwise circle acts as 1'))
        u_path = path_from_signature('U', n)
        for name, text in (('left-curl', 'sig:U; cup+1; x2; cap+1'),
                           ('left-curl-mirror', 'sig:U; cup+2; x1; cap+1')):
            report.check(name, *_compare(diagram_to_map(mor(text), n),
                                         LinearMapRep.zero(u_path, u_path),
                                         'left curl acts as 0'))
    return report.close(
        'local relation {relation!r} fails at level {level}: {detail}'.format_map)


def verify_local_relations(relations, max_level):
    """The entries of verify_local_relation for each family at levels 0..max_level."""
    return [entry for rel in relations for level in range(max_level + 1)
            for entry in verify_local_relation(rel, level, max_level=max_level)]


def compose_morphisms(lower_text, upper_text):
    """Glue two slice scripts, the first applied first."""
    lower = Morphism.from_diagram(parse_diagram(lower_text))
    upper = Morphism.from_diagram(parse_diagram(upper_text))
    return compose(upper, lower)


def mackey_check(k):
    """Res Ind = Id + Ind Res for A_{k-1} < A_k < A_{k+1}, by explicit bijection.

    The two injections into A_{k+1}: m1 is the subalgebra inclusion, m2 sends
    a (x) b to a.t.b with t the transposition (k, k+1).  Checks the dimension
    identity, injectivity, disjointness, spanning, the image characterization
    of m1, and two-sided A_k-linearity of both maps.

    Linearity is compared for every c in S_k on every basis tensor, k (k!)^2
    comparisons per side.  Within one call each v in S_k is extended to
    S_{k+1} once, and `canonicalize` runs once on each of the (k!)^2
    distinct pure tensors (g, 1, h), g and h in S_k, that the two sides
    move basis tensors to; these are kept as (g, h) -> m2 image in a dict
    dropped when the call returns.  Each side is one list comparison per c:
    right products map `right_composer(c)` over the factors and images,
    left products c y call the composers of the y, built once per call.
    k = 4 takes about 5 ms and k = 5 about 0.14 s on a 2-core VM.
    """
    if k < 1:
        raise ValueError('mackey_check needs k >= 1')
    if k > MAX_K:
        raise BoundExceeded(f'k = {k} exceeds {MAX_K}')
    report = Report(k=k)
    dim_id = math.factorial(k)
    dim_indres = k * math.factorial(k)
    dim_resind = math.factorial(k + 1)
    report.check('dimension', dim_resind == dim_id + dim_indres,
                 f'{k + 1}! = {k}.{k}! + {k}!: {dim_resind} = {dim_indres} + {dim_id}')

    t = transposition(k, k + 1, k + 1)
    sk = list(all_perms(k))
    ext = {v: perm_extend(v, k + 1) for v in sk}  # m1, each v extended once
    m1_images = {g: v for v, g in ext.items()}
    report.check('m1-injective', len(m1_images) == dim_id, 'inclusion of A_k is injective')
    report.check('m1-image-criterion',
                 all(g[k] == k + 1 for g in m1_images)
                 and sum(1 for g in all_perms(k + 1) if g[k] == k + 1) == len(m1_images),
                 'image of m1 is exactly the permutations fixing k+1')

    indres = path_from_signature('UD', k)
    indres_basis = tensor_basis(indres)
    m2 = {}
    for elem in indres_basis:
        a, _e, b = elem
        m2[elem] = perm_mult(perm_mult(ext[a], t), ext[b])
    m2_images = set(m2.values())
    report.check('m2-injective', len(m2_images) == dim_indres,
                 'a (x) b -> a.t.b is injective on the coset basis')
    report.check('images-disjoint', not (m2_images & set(m1_images)),
                 'the two images meet only in 0')
    report.check('images-span',
                 len(m2_images) + len(m1_images) == dim_resind,
                 'together the images exhaust A_{k+1}')

    # every moved tensor (c a, 1, b) or (a, 1, b c) is some (g, 1, h), g, h in S_k;
    # it is read as the m2 image of its canonical form
    one = indres_basis[0][1]
    m2_of = {(g, h): m2[canonicalize(indres, (g, one, h))] for g in sk for h in sk}.__getitem__
    ext_of = ext.__getitem__
    sk_ext = list(ext.values())
    factors_a = [a for a, _e, _b in indres_basis]
    factors_b = [b for _a, _e, b in indres_basis]
    images = list(m2.values())
    # x -> x y for each y of a list: the left products c y are these at x = c
    times_sk, times_sk_ext, times_a, times_images = (
        [right_composer(y) for y in ys] for ys in (sk, sk_ext, factors_a, images))
    ok_left = ok_right = True
    ok_m2_left = ok_m2_right = True
    for c in sk:
        ce = ext[c]
        at_c, at_ce = methodcaller('__call__', c), methodcaller('__call__', ce)
        times_c, times_ce = right_composer(c), right_composer(ce)
        ok_left &= (list(map(ext_of, map(at_c, times_sk)))
                    == list(map(at_ce, times_sk_ext)))
        ok_right &= list(map(ext_of, map(times_c, sk))) == list(map(times_ce, sk_ext))
        ok_m2_left &= (list(map(m2_of, zip(map(at_c, times_a), factors_b)))
                       == list(map(at_ce, times_images)))
        ok_m2_right &= (list(map(m2_of, zip(factors_a, map(times_c, factors_b))))
                        == list(map(times_ce, images)))
    report.check('m1-left-linear', ok_left, 'm1 commutes with left multiplication by A_k')
    report.check('m1-right-linear', ok_right, 'm1 commutes with right multiplication by A_k')
    report.check('m2-left-linear', ok_m2_left,
                 'm2 commutes with left multiplication through canonicalization')
    report.check('m2-right-linear', ok_m2_right,
                 'm2 commutes with right multiplication on the free factor')

    wd = all(perm_mult(t, perm_extend(d, k + 1)) == perm_mult(perm_extend(d, k + 1), t)
             for d in all_perms(k - 1))
    report.check('m2-well-defined', wd,
                 'the middle subalgebra A_{k-1} commutes with t, so a.t.b is balanced')
    return report.close('Mackey check fails at k = {k}: {check}'.format_map)


##############################
# character-theoretic oracle #
##############################


def _beta_set(lam, rows):
    return tuple(sorted(
        (lam[i] if i < len(lam) else 0) + (rows - 1 - i) for i in range(rows)))


@memo(1 << 14, 'oracle')
def _mn_character(beta, alpha):
    """Irreducible character value from a beta-set by repeated strip removal."""
    if not alpha:
        return 1
    r = alpha[0]
    rest = alpha[1:]
    total = 0
    members = set(beta)
    for b in beta:
        nb = b - r
        if nb < 0 or nb in members:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        sub = tuple(sorted(members - {b} | {nb}))
        term = _mn_character(sub, rest)
        total += -term if crossed % 2 else term
    return total


def character_value(lam, alpha):
    """Character of the irreducible indexed by lam at cycle type alpha.

    >>> character_value((2, 1), (1, 1, 1))
    2
    >>> character_value((2, 1), (3,))
    -1
    """
    lam = tuple(lam)
    alpha = tuple(sorted(alpha, reverse=True))
    if sum(lam) != sum(alpha):
        raise ValueError('cycle type and partition have different sizes')
    rows = max(len(lam), 1)
    return _mn_character(_beta_set(lam, rows), alpha)


def _z(alpha):
    return math.prod(p ** alpha.count(p) * math.factorial(alpha.count(p)) for p in set(alpha))


@memo(1 << 10, 'oracle')
def _class_weights(lam):
    """Pairs (alpha, chi^lam(alpha) n!/z_alpha) over the classes where chi^lam
    is nonzero; the bound is more than the 915 shapes of size <= 16."""
    n = sum(lam)
    out = []
    for alpha in partitions_of(n):
        size, rem = divmod(math.factorial(n), _z(alpha))
        if rem:
            raise VerificationFailure(f'z of {alpha} does not divide {n}!')
        chi = character_value(lam, alpha)
        if chi:
            out.append((alpha, chi * size))
    return tuple(out)


def induced_character_decomposition(lam, mu, bound=7):
    """Multiplicities of the simples in the induced product of two simples.

    Induction from S_m x S_n to S_{m+n}, decomposed by exact character inner
    products; this is the independent oracle for Littlewood-Richardson
    coefficients.  Each inner product is summed in integers over the class
    pairs (a, b), merged by cycle type a u b and weighted by _class_weights,
    and read against the class weights of nu (chi^nu times (m+n)!/z), so it
    is divided once by m! n! (m+n)!; a remainder is a verification failure.

    >>> induced_character_decomposition((1,), (1,))
    {(2,): 1, (1, 1): 1}
    """
    lam, mu = tuple(lam), tuple(mu)
    m, n = sum(lam), sum(mu)
    if m + n > bound:
        raise BoundExceeded(f'total size {m + n} exceeds bound {bound}')
    if n == 0:
        return {lam: 1} if m else {(): 1}
    if m == 0:
        return {mu: 1}
    weights, betas = {}, _class_weights(mu)
    for a, wa in _class_weights(lam):
        for b, wb in betas:
            merged = tuple(sorted(a + b, reverse=True))
            weights[merged] = weights.get(merged, 0) + wa * wb
    weights = {merged: w * _z(merged) for merged, w in weights.items()}
    scale = math.factorial(m) * math.factorial(n) * math.factorial(m + n)
    out = {}
    for nu in partitions_of(m + n):
        total = sum(weights.get(alpha, 0) * w for alpha, w in _class_weights(nu))
        mult, rem = divmod(total, scale)
        if rem or mult < 0:
            raise VerificationFailure(
                f'non-integral multiplicity {Fraction(total, scale)} for {nu}')
        if mult:
            out[nu] = mult
    return out

