r"""Rational symmetric-group algebras and their induction/restriction bimodules.

A_n is the group algebra of S_n over the rationals.  A word of up/down strands
becomes a composite bimodule: each up step tensors with A_{n+1} as an
(A_{n+1}, A_n)-bimodule (induction), each down step with A_{n+1} as an
(A_n, A_{n+1})-bimodule (restriction), tensor products taken over the shared
subalgebras.  Every such composite has a canonical basis built from minimal
coset representatives with one free group-algebra factor at the base, and
diagram_to_map turns a planar diagram into the corresponding bimodule map,
stored as one sparse row per basis tensor, with basis tensors keyed by
their integer rank in the canonical basis.  Such a map is right
A_n-linear (n the base), so it is fixed by its rows at the generators, the
tensors whose free factor is 1: a slice rewrites only those by the tuple
walk and derives the rest, and verify_local_relation replays the graphical
relations as identities of such maps on generator rows alone.
mackey_check reads Res Ind = Id + Ind Res off `combinatorics.coset_split`, and
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

from collections import Counter
from fractions import Fraction

from .combinatorics import (
    all_perms,
    coset_decompose,
    coset_rep,
    coset_split,
    identity_perm,
    is_permutation,
    partitions_of,
    perm_extend,
    perm_inverse,
    perm_length,
    perm_mult,
    perm_table,
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
from .linalg import LinComb, common_denominator, matrix_rank, memo, render_terms, scalar

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
    so the leftmost strand is the outermost functor.  `layout` holds the
    (is_up, carrier rank) pair of each tensor slot, leftmost first, and
    `size` is len(tensor_basis(path)); both are set once, here.
    """

    __slots__ = ('levels', 'layout', 'size')

    def __init__(self, levels):
        levels = tuple(levels)
        if not levels:
            raise ValueError('a path needs at least the base rank')
        for x in levels:
            if type(x) is not int:
                raise ValueError(f'rank {x!r} is not an int')
        if any(x < 0 for x in levels):
            raise UnrealizableAtRank(f'negative rank in path {levels}')
        for a, b in zip(levels, levels[1:]):
            if abs(a - b) != 1:
                raise ValueError(f'adjacent ranks must differ by 1: {levels}')
        rev = levels[::-1]
        layout = tuple((b > a, max(a, b)) for b, a in zip(rev, rev[1:]))
        object.__setattr__(self, 'levels', levels)
        object.__setattr__(self, 'layout', layout)
        object.__setattr__(self, 'size', math.prod(m for up, m in layout if up)
                           * math.factorial(levels[0]))

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
               for up, m in path.layout]
    choices.append(list(all_perms(path.base)))
    return [tuple(elem) for elem in itertools.product(*choices)]


def _rank(path, elem):
    """Position of a canonical tensor in tensor_basis(path): a mixed radix of
    the coset index g[-1] of each up slot g (radix its rank m), then the
    lexicographic index of the free factor.

    >>> path = path_from_signature('DU', 2)
    >>> [_rank(path, e) for e in tensor_basis(path)]
    [0, 1, 2, 3, 4, 5]
    """
    r = 0
    for g, (up, m) in zip(elem, path.layout):
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
    for up, m in reversed(path.layout):
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
    for g, (up, m) in zip(elem, path.layout):
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
        ranks = [m for _up, m in path.layout]
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


def _slice_images(path_below, path_above, slice_, elem):
    """Images of a pure tensor under one slice; each has coefficient 1."""
    kind, i = slice_
    p = i - 1
    slots = list(elem[:-1])
    w = elem[-1]
    k = len(path_below.layout)
    if kind == 'x':
        right_entry = path_below.levels[k - p - 2]
        up_left, up_right = path_below.layout[p][0], path_below.layout[p + 1][0]
        if up_left and up_right:  # UU
            b = right_entry
            t = transposition(b + 1, b + 2, b + 2)
            g = perm_mult(perm_mult(slots[p], perm_extend(slots[p + 1], b + 2)), t)
            slots[p], slots[p + 1] = g, identity_perm(b + 1)
            return [tuple(slots) + (w,)]
        if not (up_left or up_right):  # DD
            c = right_entry
            t = transposition(c - 1, c, c)
            g = perm_mult(perm_mult(t, perm_extend(slots[p], c)), slots[p + 1])
            slots[p], slots[p + 1] = identity_perm(c - 1), g
            return [tuple(slots) + (w,)]
        if up_right:  # DU
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
    c_level = path_below.levels[k - p - 2]
    if kind == 'cap+':
        g = perm_mult(slots[p], slots[p + 1])
        if g[c_level] != c_level + 1:
            return []
        g = g[:c_level]
    else:
        g = perm_mult(slots[p], slots[p + 1])
    del slots[p:p + 2]
    if p < len(slots):
        slots[p] = perm_mult(perm_extend(g, path_above.layout[p][1]), slots[p])
    else:
        w = perm_mult(g, w)
    return [tuple(slots) + (w,)]


def _slice_ranks(path_below, path_above, slice_, r):
    """The ranks in path_above of the canonical images of basis tensor r of
    path_below under one slice: canonicalize applied to each of
    _slice_images, which all have coefficient 1."""
    return tuple(_rank(path_above, canonicalize(path_above, image)) for image in
                 _slice_images(path_below, path_above, slice_, _unrank(path_below, r)))


@memo(1 << 8)
def _slice_table(levels, slice_):
    """One slice on the path with these levels: a list by domain rank whose entry r
    is None until a path first reaches r, then filled by `_fill`, so a slice
    rewrites a basis tensor once across diagrams, sides and queries.
    The bound counts tables: `verify-all` at its defaults reads 183 and
    `bimod verify-relations --max-level 4` 58, the largest of 5,040 entries.
    """
    return [None] * BimodulePath(levels).size


def _fill(table, path_below, path_above, slice_, r):
    """Fill table[r], and first its generator's entry.  A slice is right A_n-linear
    (n the base): tensor r = c n! + j, generator c n! (free factor 1) times w_j of
    rank j, maps to the generator's images, each free factor times w_j.  So only
    a generator runs `_slice_ranks`: `verify-all` at its defaults walks 872
    entries and derives 236, `bimod verify-relations --max-level 4` walks
    1,029 and derives none.
    """
    size = math.factorial(path_below.base)
    gen = r - r % size
    if table[gen] is None:
        table[gen] = _slice_ranks(path_below, path_above, slice_, gen)
    if r != gen:
        perms, rank = perm_table(path_below.base)[:2]
        times = right_composer(perms[r - gen])
        table[r] = tuple(c - c % size + rank[times(perms[c % size])] for c in table[gen])


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
        n_dom, n_cod = domain.size, codomain.size
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
                f'{len(self.rows)} x {self.codomain.size})')

    @property
    def images(self):
        cod = self.codomain
        return tuple(BimoduleElem._new(cod, {_unrank(cod, c): x for c, x in row.items()})
                     for row in self.rows)

    @property
    def matrix(self):
        zeros = [0] * self.codomain.size
        out = []
        for row in self.rows:
            cells = zeros.copy()
            for c, x in row.items():
                cells[c] = x
            out.append(tuple(cells))
        return tuple(out)

    @classmethod
    def identity(cls, path):
        return cls._new(path, path, tuple({r: 1} for r in range(path.size)))

    @classmethod
    def zero(cls, domain, codomain):
        return cls._new(domain, codomain, ({},) * domain.size)

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
    return LinearMapRep._new(dom_path, cod_path, _rows(m, dom_path, 1))


def _rows(m, dom_path, step):
    """The clean rows of m's map from dom_path at its ranks 0, step, 2 step, ..."""
    firsts = range(0, dom_path.size, step)
    rows = None
    for diag, coeff in m.terms.items():
        starts = ends = firsts
        path = dom_path
        for q, sl in enumerate(diag.slices):
            above = path_from_signature(diag.sig_below(q + 1), dom_path.base)
            table = _slice_table(path.levels, sl)
            images = list(map(table.__getitem__, ends))
            if None in images:
                for r in ends:
                    if table[r] is None:
                        _fill(table, path, above, sl, r)
                images = list(map(table.__getitem__, ends))
            path = above
            counts = list(map(len, images))
            if counts.count(1) != len(counts):
                starts = list(itertools.chain.from_iterable(map(itertools.repeat, starts, counts)))
            ends = list(itertools.chain.from_iterable(images))
        if len(m.terms) == 1 and type(starts) is range:  # one path from each rank
            return tuple({end: coeff} for end in ends)
        rows = rows or [{} for _ in firsts]
        for (start, end), c in Counter(zip(starts, ends)).items():
            row = rows[start // step]
            row[end] = row.get(end, 0) + coeff * c
    if rows is None:  # the zero morphism
        return ({},) * len(firsts)
    return tuple(_clean_row(row.items()) for row in rows)


def matrix_text(rep):
    """Plain-text numerator/denominator grid, one matrix row per line."""
    zeros = ['0/1'] * rep.codomain.size
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

# Ceilings checked before any work, timed on a 2-core VM.  verify_local_relation
# follows only the generator rows of each side, (n+3)!/n! = (n+1)(n+2)(n+3) for the
# braid family.  `bimod verify-relations --max-level 4` takes 0.2 s and 18 MB
# ru_maxrss, nearly all start-up; the braid, by a direct call, 0.008 s of CPU at
# level 4, 0.009 s at level 5 and 0.021 s and 23 MB at level 6.  mackey_check:
# `bimod mackey --k 5` takes 0.08-0.09 s, nearly all start-up, and k = 6 by a
# direct call 0.045 s.  A higher ceiling changes error exits that CI compares,
# so each raise is a change of its own.
MAX_LEVEL = 4
MAX_K = 5


def _generator_rows(m, base):
    """The rows of m's map at the generator ranks, the multiples of base! (free
    factor 1): the map is right A_base-linear, so they fix it, and two such maps
    first differ on one of them.  A composite factoring through an unrealizable
    intermediate rank is the zero map (the bimodule there is the zero module)."""
    dom = path_from_signature(m.domain, base)
    try:
        return _rows(m, dom, math.factorial(base))
    except UnrealizableAtRank:
        return ({},) * (dom.size // math.factorial(base))


def _compare(lhs, rhs, step, detail):
    """(lhs == rhs, detail) on rows of the ranks 0, step, ...: the detail names
    the first differing entry."""
    if lhs == rhs:
        return True, detail
    for i, (left, right) in enumerate(zip(lhs, rhs)):
        differ = [c for c in left.keys() | right.keys() if left.get(c, 0) != right.get(c, 0)]
        if differ:
            c = min(differ)
            return False, f'{detail}; first difference at entry ({i * step}, {c}): ' \
                          f'{left.get(c, 0)} != {right.get(c, 0)}'
    return False, detail + '; first difference at '


@memo(16)
def _relation_morphism(text):
    """A slice script of verify_local_relation, parsed once; its eleven
    fixed texts are the only keys."""
    return Morphism.from_diagram(parse_diagram(text))


@memo(1)
def _identity_minus_cap_cup():
    """The right side of the du-double check, built once."""
    cap_cup = compose(_relation_morphism('sig:; cup+1'), _relation_morphism('sig:DU; cap+1'))
    return _relation_morphism('sig:DU') - cap_cup


def verify_local_relation(rel, n, max_level=3):
    """Check one graphical relation family as exact matrices at base rank n.

    Families: 'up-double' (double crossing on two up strands = identity),
    'braid' (crossings satisfy the braid relation), 'mixed-double' (down-up
    double crossing = identity minus cap;cup, up-down double crossing =
    identity), 'circle-curl' (counterclockwise circle = 1, left curl = 0).
    Both sides are right A_n-linear, so only their generator rows are
    followed and compared (`_generator_rows`).
    """
    if rel not in LOCAL_RELATIONS:
        raise ValueError(f'unknown relation {rel!r}; choose from {LOCAL_RELATIONS}')
    top = min(max_level, MAX_LEVEL)
    if not 0 <= n <= top:
        raise BoundExceeded(f'level {n} outside 0..{top}')
    report = Report(relation=rel, level=n)
    step = math.factorial(n)

    def rows(text):
        return _generator_rows(_relation_morphism(text), n)

    def identity(sig):
        return tuple({r: 1} for r in range(0, path_from_signature(sig, n).size, step))

    if rel == 'up-double':
        report.check('up-double', *_compare(
            rows('sig:UU; x1; x1'), identity('UU'), step,
            'double crossing on UU equals the identity'))
    elif rel == 'braid':
        report.check('braid', *_compare(
            rows('sig:UUU; x1; x2; x1'), rows('sig:UUU; x2; x1; x2'), step,
            'x1 x2 x1 = x2 x1 x2 on UUU'))
    elif rel == 'mixed-double':
        report.check('du-double', *_compare(
            rows('sig:DU; x1; x1'), _generator_rows(_identity_minus_cap_cup(), n), step,
            'double crossing on DU equals identity minus cap;cup'))
        try:
            ud = identity('UD')
        except UnrealizableAtRank:
            report.check('ud-double', True, 'double crossing on UD equals the identity '
                                            '(zero module at this rank: vacuous)')
        else:
            report.check('ud-double', *_compare(
                rows('sig:UD; x1; x1'), ud, step,
                'double crossing on UD equals the identity'))
    else:
        report.check('ccw-circle', *_compare(
            rows('sig:; cup+1; cap+1'), identity(''), step,
            'counterclockwise circle acts as 1'))
        zero = ({},) * len(identity('U'))
        for name, text in (('left-curl', 'sig:U; cup+1; x2; cap+1'),
                           ('left-curl-mirror', 'sig:U; cup+2; x1; cap+1')):
            report.check(name, *_compare(rows(text), zero, step, 'left curl acts as 0'))
    return report.close(
        'local relation {relation!r} fails at level {level}: {detail}'.format_map)


def verify_local_relations(relations, max_level):
    """The entries of verify_local_relation for each family at levels 0..max_level."""
    return [entry for rel in relations for level in range(max_level + 1)
            for entry in verify_local_relation(rel, level, max_level=max_level)]


def mackey_check(k):
    """Res Ind = Id + Ind Res for A_{k-1} < A_k < A_{k+1}, by explicit bijection.

    The two injections into A_{k+1}: m1 is the subalgebra inclusion, m2 sends
    a (x) b to a.t.b with t the transposition (k, k+1).  Checks the dimension
    identity, injectivity, disjointness, spanning, the image characterization
    of m1, and two-sided A_k-linearity of both maps.

    Both maps and the linearity verdicts are `combinatorics.coset_split(k)`, on
    the ranks of S_k and S_(k+1), as in nilcoxeter.verify_bimodule_iso; k = 5
    takes 1.5 ms warm and 5-6 ms with its tables built, k = 6 0.045 s, on a 2-core VM.
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

    split = coset_split(k)
    big = split.table
    m1_images = set(split.m1)
    report.check('m1-injective', len(m1_images) == dim_id, 'inclusion of A_k is injective')
    report.check('m1-image-criterion',
                 m1_images == {g for g, w in enumerate(big.perms) if w[k] == k + 1},
                 'image of m1 is exactly the permutations fixing k+1')

    # m2 of the basis r_i (x) 1 (x) b of path_from_signature('UD', k); t = s_k
    m2_images = set(split.m2.values())
    report.check('m2-injective', len(m2_images) == dim_indres,
                 'a (x) b -> a.t.b is injective on the coset basis')
    report.check('images-disjoint', not (m2_images & m1_images),
                 'the two images meet only in 0')
    report.check('images-span',
                 len(m2_images) + len(m1_images) == dim_resind,
                 'together the images exhaust A_{k+1}')

    report.check('m1-left-linear', split.m1_left, 'm1 commutes with left multiplication by A_k')
    report.check('m1-right-linear', split.m1_right, 'm1 commutes with right multiplication by A_k')
    report.check('m2-left-linear', split.m2_left,
                 'm2 commutes with left multiplication through canonicalization')
    report.check('m2-right-linear', split.m2_right,
                 'm2 commutes with right multiplication on the free factor')

    t = big.left[k][0]  # s_k times the identity (rank 0); s_1 ... s_{k-2} generate A_{k-1}
    wd = all(big.left[j][t] == big.right[j][t] for j in range(1, k - 1))
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

