r"""Slice-encoded planar diagrams of the graphical Heisenberg category.

Objects are signatures (words over U/D, read left to right); a diagram is a
signature plus a bottom-to-top sequence of slices, each a crossing `xI`, an
oriented cup `cup+I`/`cup-I` (counterclockwise/clockwise, inserting a D,U or
U,D pair at position I), or the matching cap `cap+I`/`cap-I`.  Morphisms are
rational combinations of diagrams.  simplify applies the local relations as
directional rewrites: double crossings collapse (the down-up case leaves the
extra -cap;cup term), counterclockwise circles vanish into the empty diagram,
left curls kill their term.  Clockwise circles and right curls have no
assigned scalar and are reported as irreducible.

>>> circle = parse_diagram('sig:; cup+1; cap+1')
>>> evaluate_closed(Morphism.from_diagram(circle))
Fraction(1, 1)
"""

from __future__ import annotations

import re

from fractions import Fraction

from .combinatorics import identity_perm, perm_mult, reduced_word, simple_transposition
from .errors import (
    IllFormedSlice,
    NotBraidOnly,
    ParseError,
    SignatureMismatch,
    Report,
    UnrealizableAtRank,
)
from .heisenberg import HeisNormal, heis_e, heis_hstar, heis_normalize, \
    heis_product, heis_unit, HeisWord
from .linalg import LinComb, render_terms

__all__ = [
    'S_DOWN',
    'LAMBDA_UP',
    'Diagram',
    'Morphism',
    'Irreducible',
    'parse_diagram',
    'render_diagram',
    'render_morphism',
    'identity_morphism',
    'compose',
    'tensor',
    'simplify',
    'evaluate_closed',
    'sym_image',
    'section',
    'section_of_elem',
    'idempotent_object',
    'k0_class',
    'verify_k0_relations',
]

S_DOWN = 'S_down'
LAMBDA_UP = 'Lambda_up'

_KINDS = ('x', 'cup+', 'cup-', 'cap+', 'cap-')


def _apply_slice(sig, slice_):
    kind, i = slice_
    if kind == 'x':
        if not 1 <= i <= len(sig) - 1:
            raise IllFormedSlice(f'crossing x{i} needs strands {i},{i + 1} in {sig!r}')
        return sig[:i - 1] + sig[i] + sig[i - 1] + sig[i + 1:]
    if kind in ('cup+', 'cup-'):
        if not 1 <= i <= len(sig) + 1:
            raise IllFormedSlice(f'cup at {i} outside {sig!r}')
        pair = 'DU' if kind == 'cup+' else 'UD'
        return sig[:i - 1] + pair + sig[i - 1:]
    if kind in ('cap+', 'cap-'):
        pair = 'DU' if kind == 'cap+' else 'UD'
        if not 1 <= i <= len(sig) - 1 or sig[i - 1:i + 1] != pair:
            raise IllFormedSlice(
                f'cap at {i} needs adjacent {pair!r} in {sig!r}')
        return sig[:i - 1] + sig[i + 1:]
    raise IllFormedSlice(f'unknown slice kind {kind!r}')


class Diagram:
    """A signature with a validated bottom-to-top slice sequence."""

    __slots__ = ('domain', 'slices', '_sigs')

    def __init__(self, domain, slices):
        if not all(ch in 'UD' for ch in domain):
            raise ValueError(f'bad signature {domain!r}')
        slices = tuple((kind, int(i)) for kind, i in slices)
        sigs = [domain]
        for s in slices:
            if s[0] not in _KINDS:
                raise IllFormedSlice(f'unknown slice kind {s[0]!r}')
            sigs.append(_apply_slice(sigs[-1], s))
        object.__setattr__(self, 'domain', domain)
        object.__setattr__(self, 'slices', slices)
        object.__setattr__(self, '_sigs', tuple(sigs))

    def __setattr__(self, *a):
        raise AttributeError('Diagram is immutable')

    @property
    def codomain(self):
        return self._sigs[-1]

    def sig_below(self, p):
        """Signature just below slice number p (0-based from the bottom)."""
        return self._sigs[p]

    def __eq__(self, other):
        return (isinstance(other, Diagram) and self.domain == other.domain
                and self.slices == other.slices)

    def __hash__(self):
        return hash((self.domain, self.slices))

    def __repr__(self):
        return f'Diagram({render_diagram(self)!r})'


class Morphism(LinComb):
    """Rational combination of diagrams sharing a domain and codomain."""

    __slots__ = ('domain', 'codomain')
    _TAGS = ('domain', 'codomain')
    _RATIONAL = True
    _MISMATCH = SignatureMismatch

    def __new__(cls, domain, codomain, terms):
        for d in terms:
            if d.domain != domain or d.codomain != codomain:
                raise SignatureMismatch(
                    f'diagram {render_diagram(d)!r} is not {domain!r} -> {codomain!r}')
        return cls._new(domain, codomain, terms)

    terms = LinComb.coeffs  # the coefficient slot: diagram -> coefficient

    @classmethod
    def from_diagram(cls, d, coeff=1):
        return cls._new(d.domain, d.codomain, {d: coeff})

    def __repr__(self):
        return f'Morphism({render_morphism(self)!r})'


class Irreducible:
    """Closed-diagram evaluation remainder: terms the relations cannot reduce."""

    __slots__ = ('scalar', 'stuck')

    def __init__(self, scalar, stuck):
        object.__setattr__(self, 'scalar', Fraction(scalar))
        object.__setattr__(self, 'stuck', stuck)

    def __setattr__(self, *a):
        raise AttributeError('Irreducible is immutable')

    def __eq__(self, other):
        return (isinstance(other, Irreducible) and self.scalar == other.scalar
                and self.stuck == other.stuck)

    def __repr__(self):
        return f'Irreducible({self.scalar!r}, {render_morphism(self.stuck)!r})'


def identity_morphism(sig):
    return Morphism.from_diagram(Diagram(sig, ()))


def compose(f, g):
    """f after g: glue g's slices below f's.

    >>> circ = Morphism.from_diagram(parse_diagram('sig:; cup+1; cap+1'))
    >>> compose(circ, circ) == Morphism.from_diagram(
    ...     parse_diagram('sig:; cup+1; cap+1; cup+1; cap+1'))
    True
    """
    if g.codomain != f.domain:
        raise SignatureMismatch(
            f'cannot compose: inner codomain {g.codomain!r} != outer domain {f.domain!r}')
    out = {}
    for dg, cg in g.terms.items():
        for df, cf in f.terms.items():
            glued = Diagram(dg.domain, dg.slices + df.slices)
            out[glued] = out.get(glued, 0) + cg * cf
    return Morphism._new(g.domain, f.codomain, out)


def tensor(f, g):
    """Horizontal juxtaposition, f on the left."""
    out = {}
    for df, cf in f.terms.items():
        shift = len(df.codomain)
        for dg, cg in g.terms.items():
            slices = df.slices + tuple((kind, i + shift) for kind, i in dg.slices)
            d = Diagram(df.domain + dg.domain, slices)
            out[d] = out.get(d, 0) + cf * cg
    return Morphism._new(f.domain + g.domain, f.codomain + g.codomain, out)


#################
# simplification #
#################

_WIDTH_DELTA = {'x': 0, 'cup+': 2, 'cup-': 2, 'cap+': -2, 'cap-': -2}


def _footprint(kind, i, in_upper_frame):
    # interval occupied in the frame between two slices; cups sit at their
    # insertion seam when viewed from below, caps at their seam from above
    if kind == 'x':
        return (float(i), float(i + 1))
    if kind in ('cup+', 'cup-'):
        return (float(i), float(i + 1)) if in_upper_frame else (i - 0.5, i - 0.5)
    return (i - 0.5, i - 0.5) if in_upper_frame else (float(i), float(i + 1))


def _exchange(lower, upper):
    """Swap two vertically adjacent slices acting on disjoint strands.

    Returns (new_lower, new_upper) or None when the slices interact.
    """
    lk, li = lower
    uk, ui = upper
    f_low = _footprint(lk, li, True)
    f_up = _footprint(uk, ui, False)
    if f_up[1] < f_low[0]:
        # upper slice is entirely left: it commutes down unchanged; the old
        # lower slice then sees the width change
        return (uk, ui), (lk, li + _WIDTH_DELTA[uk])
    if f_up[0] > f_low[1]:
        return (uk, ui - _WIDTH_DELTA[lk]), (lk, li)
    return None


def _key(slice_):
    kind, i = slice_
    rank = {'cup+': 0, 'cup-': 0, 'x': 1, 'cap+': 2, 'cap-': 2}[kind]
    return (i, rank)


def _canonicalize(d):
    """Bubble slices downward past distant ones (an isotopy), smaller keys first.

    Each committed swap strictly lowers the bottom-to-top key sequence in
    lexicographic order, so the loop terminates at a fixed point.
    """
    slices = list(d.slices)
    changed = True
    while changed:
        changed = False
        for p in range(len(slices) - 1):
            swapped = _exchange(slices[p], slices[p + 1])
            if swapped is not None and _key(swapped[0]) < _key(slices[p]):
                slices[p], slices[p + 1] = swapped
                changed = True
    slices = tuple(slices)
    return d if slices == d.slices else Diagram(d.domain, slices)


def _rewrite_once(d):
    """First applicable local-relation rewrite, or None.

    Returns a list of (diagram, coefficient-factor) replacements; an empty
    list means the whole term is zero (left curl).
    """
    slices = d.slices
    for p in range(len(slices) - 2):
        s1, s2, s3 = slices[p], slices[p + 1], slices[p + 2]
        if s1[0] == 'cup+' and s3[0] == 'cap+':
            i = s3[1]
            if (s1[1], s2) in ((i, ('x', i + 1)), (i + 1, ('x', i))):
                return []  # left curl: the term vanishes
    for p in range(len(slices) - 1):
        s1, s2 = slices[p], slices[p + 1]
        rest = slices[:p] + slices[p + 2:]
        if s1[0] == 'x' and s1 == s2:
            i = s1[1]
            below = d.sig_below(p)
            pair = below[i - 1:i + 1]
            if pair in ('UU', 'UD'):
                return [(Diagram(d.domain, rest), 1)]
            if pair == 'DU':
                replaced = slices[:p] + (('cap+', i), ('cup+', i)) + slices[p + 2:]
                return [(Diagram(d.domain, rest), 1),
                        (Diagram(d.domain, replaced), -1)]
        if s1[0] == 'cup+' and s2 == ('cap+', s1[1]):
            return [(Diagram(d.domain, rest), 1)]  # ccw circle = 1
    return None


def simplify(m):
    """Apply the directional local-relation rewrites until none applies.

    The output is relation-equivalent to the input but not a canonical form:
    clockwise circles, right curls, and braid-related words are left alone.
    """
    out = {}
    work = list(m.terms.items())
    while work:
        d, c = work.pop()
        d = _canonicalize(d)
        res = _rewrite_once(d)
        if res is None:
            out[d] = out.get(d, 0) + c
        else:
            for d2, k in res:
                work.append((d2, k * c))
    return Morphism._new(m.domain, m.codomain, out)


def evaluate_closed(m):
    """Evaluate an endomorphism of the empty signature.

    Returns the scalar when every term reduces to the empty diagram, and an
    Irreducible carrying the reduced scalar part plus the stuck terms
    otherwise (clockwise circles and right curls have no assigned value).

    >>> two = compose(Morphism.from_diagram(parse_diagram('sig:; cup+1; cap+1')),
    ...               Morphism.from_diagram(parse_diagram('sig:; cup+1; cap+1')))
    >>> evaluate_closed(two)
    Fraction(1, 1)
    """
    if m.domain != '' or m.codomain != '':
        raise SignatureMismatch('evaluate_closed needs empty boundary signatures')
    reduced = simplify(m)
    scalar = Fraction(0)
    stuck = {}
    for d, c in reduced.terms.items():
        if not d.slices:
            scalar += c
        else:
            stuck[d] = c
    if not stuck:
        return scalar
    return Irreducible(scalar, Morphism._new('', '', stuck))


#########################
# symmetric-group image #
#########################


def sym_image(m):
    """Braid-only endomorphisms of an all-up signature land in the group algebra.

    Slices are read bottom to top; the newest crossing multiplies on the left,
    so a single crossing xi maps to the transposition s_i.
    """
    n = len(m.domain)
    if m.domain != 'U' * n or m.codomain != 'U' * n:
        raise NotBraidOnly('domain and codomain must be all-up')
    from .bimodel import GroupAlgElem
    coeffs = {}
    for d, c in m.terms.items():
        perm = identity_perm(n)
        for kind, i in d.slices:
            if kind != 'x':
                raise NotBraidOnly(f'slice {kind}{i} is not a crossing')
            perm = perm_mult(simple_transposition(i, n), perm)
        coeffs[perm] = coeffs.get(perm, 0) + c
    return GroupAlgElem._new(n, coeffs)


def section(sigma):
    """A braid-only diagram on up strands mapping to sigma under sym_image."""
    n = len(sigma)
    slices = tuple(('x', i) for i in reversed(reduced_word(sigma)))
    return Morphism.from_diagram(Diagram('U' * n, slices))


def section_of_elem(a):
    """Linear extension of section to group-algebra elements."""
    zero = Morphism._new('U' * a.n, 'U' * a.n, {})
    return sum((c * section(sigma) for sigma, c in a.coeffs.items()), zero)


def idempotent_object(kind, n):
    """The pair (signature, idempotent): S = (down^n, e(n)), Lambda = (up^n, e'(n))."""
    if n < 1:
        raise ValueError('object index must be positive')
    from .bimodel import antisymmetrizer, symmetrizer
    if kind == S_DOWN:
        return 'D' * n, symmetrizer(n)
    if kind == LAMBDA_UP:
        return 'U' * n, antisymmetrizer(n)
    raise ValueError(f'unknown object kind {kind!r}')


#################
# K_0 level     #
#################


def k0_class(kind_seq):
    """Heisenberg element mapping to the class of the listed tensor product.

    >>> k0_class([(S_DOWN, 1), (LAMBDA_UP, 1)]) == (
    ...     heis_e((1,)) * heis_hstar((1,)) + heis_unit())
    True
    """
    out = heis_unit()
    for kind, n in kind_seq:
        if n < 1:
            raise ValueError('object index must be positive')
        if kind == S_DOWN:
            out = heis_product(out, heis_hstar((n,)))
        elif kind == LAMBDA_UP:
            out = heis_product(out, heis_e((n,)))
        else:
            raise ValueError(f'unknown object kind {kind!r}')
    return out


def _signature_dimension(sig, base):
    from .bimodel import path_from_signature
    try:
        return path_from_signature(sig, base).size
    except UnrealizableAtRank:
        return 0


def verify_k0_relations(m, n, max_base=3):
    """The three K_0 relations, plus rank-by-rank dimension cross-checks.

    In HeisNormal arithmetic: Lambda-classes commute, S-classes commute, and
    [S^n][Lambda^m] = [Lambda^m][S^n] + [Lambda^{m-1}][S^{n-1}].  The bimodel
    cross-check expands the plain (untruncated) strand signatures: at every
    base rank k <= max_base, dim of down^n up^m equals the normal-form-weighted
    sum of dims of up^a down^b.
    """
    if m < 1 or n < 1:
        raise ValueError('generator indices start at 1')
    report = Report(m=m, n=n)
    e_m, e_n = heis_e((m,)), heis_e((n,))
    h_m, h_n = heis_hstar((m,)), heis_hstar((n,))
    report.check('lambda-commute', heis_product(e_m, e_n) == heis_product(e_n, e_m),
                 '[Lambda^m][Lambda^n] = [Lambda^n][Lambda^m]')
    report.check('s-commute', heis_product(h_m, h_n) == heis_product(h_n, h_m),
                 '[S^m][S^n] = [S^n][S^m]')
    lower = heis_unit()
    if m > 1:
        lower = heis_product(lower, heis_e((m - 1,)))
    if n > 1:
        lower = heis_product(lower, heis_hstar((n - 1,)))
    report.check('s-lambda-exchange',
                 heis_product(h_n, e_m) == heis_product(e_m, h_n) + lower,
                 '[S^n][Lambda^m] = [Lambda^m][S^n] + [Lambda^{m-1}][S^{n-1}]')

    # strand-level dimension audit: down^n up^m against the normal form of
    # (h_1*)^n (e_1)^m, whose terms are column-shaped
    expansion = heis_normalize(HeisWord((('h*', 1),) * n + (('e', 1),) * m))
    for k in range(max_base + 1):
        lhs = _signature_dimension('D' * n + 'U' * m, k)
        rhs = 0
        for (lam, mu), c in expansion.coeffs.items():
            a, b = len(lam), len(mu)
            rhs += c * _signature_dimension('U' * a + 'D' * b, k)
        report.check(f'dim-consistency-base-{k}', lhs == rhs,
                     f'dim(down^{n} up^{m} at {k}) = {lhs}, expansion gives {rhs}')
    return report.close(
        'K_0 check {check!r} failed for (m, n) = ({m}, {n}): {detail}'.format_map)


#################
# wire format   #
#################

_SIG_RE = re.compile(r'^sig:\s*(?P<sig>[UD]*)$')
_SLICE_RE = re.compile(r'^(?:x(?P<xi>\d+)|(?P<kind>cup|cap)(?P<w>[+-])(?P<i>\d+))$')


def parse_diagram(text):
    """Parse the slice DSL: `sig:UU; x1; cup+2; cap-1`.

    >>> parse_diagram('sig:UU; x1').codomain
    'UU'
    """
    parts = [p.strip() for p in text.strip().split(';')]
    mo = _SIG_RE.match(parts[0])
    if not mo:
        raise ParseError(f'diagram must start with sig:, got {parts[0]!r}')
    slices = []
    for part in parts[1:]:
        if not part:
            raise ParseError(f'empty slice in {text!r}')
        ms = _SLICE_RE.match(part)
        if not ms:
            raise ParseError(f'bad slice {part!r}')
        if ms.group('xi') is not None:
            slices.append(('x', int(ms.group('xi'))))
        else:
            slices.append((ms.group('kind') + ms.group('w'), int(ms.group('i'))))
    return Diagram(mo.group('sig'), tuple(slices))


def render_diagram(d):
    """Emit the same grammar parse_diagram reads.

    >>> render_diagram(parse_diagram('sig:UU; x1; cup+2 ; cap-1'))
    'sig:UU; x1; cup+2; cap-1'
    """
    pieces = [f'sig:{d.domain}']
    for kind, i in d.slices:
        pieces.append(f'x{i}' if kind == 'x' else f'{kind}{i}')
    return '; '.join(pieces)


def render_morphism(m):
    items = sorted(m.terms.items(),
                   key=lambda dc: (len(dc[0].slices), render_diagram(dc[0])))
    return render_terms(('[' + render_diagram(d) + ']', c) for d, c in items)
