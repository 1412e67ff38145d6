r"""Integral Heisenberg algebra, Fock space, and symmetric-group K-theory.

The algebra h has generators e_n and h_n* (n >= 1) with all e's commuting,
all h*'s commuting, and h_m* e_n = e_n h_m* + e_{n-1} h_{m-1}*, where an
index-0 factor collapses to 1.  As a Z-module h = Sym (x) Sym*, with basis
e_lambda h_mu*; elements are kept in that normal form (all starred letters
rightmost).  Moving e_n left past h_mu* lowers each starred letter at most
once, which gives the closed form

    h_mu* e_n = sum over sets S of at most n parts of mu of
                e_{n-|S|} h*_{mu lowered by 1 on S};

`heis_normalize` applies it letter by letter, and
`heis_normalize_single_step` (one rewrite of an adjacent pair at a time) is
its oracle.  h acts on Sym -- the Fock space -- by e_lambda = multiplication
and h_mu* = the dual (adjoint) operator, and the same two operators realize
induction and restriction products on symmetric-group representation classes
under [S^lambda] -> s_lambda.  In the Schur basis these are the Pieri rules:
e_n (induction with the sign representation) adds vertical n-strips to
s_lambda and h_m* (restriction with the trivial one) removes horizontal
m-strips, which is how `fock_apply_schur` and `fock_apply` act;
`fock_apply_word` multiplies and takes adjoints letter by letter and is
their oracle.

>>> w = parse_heisword('h1* e1')
>>> render_heis(heis_normalize(w))
'e[1] h*[1] + 1'
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import comb

from .combinatorics import is_partition, partition_key, partitions_of
from .errors import BoundExceeded, ParseError, Report
from .linalg import LinComb, render_terms
from .symfunc import SymFunc, _pieri, basis_element, convert, dual_apply, multiply

__all__ = [
    'HeisWord',
    'HeisNormal',
    'heis_unit',
    'heis_e',
    'heis_hstar',
    'heis_normalize',
    'heis_normalize_single_step',
    'heis_product',
    'fock_apply',
    'fock_apply_schur',
    'fock_apply_word',
    'MAX_DEGREE',
    'verify_heis_relation',
    'verify_boson_relation',
    'specht_to_sym',
    'ind_class',
    'res_class',
    'verify_weak_fock',
    'parse_heisword',
    'render_heisword',
    'render_heis',
    'heis_to_json',
    'heis_from_json',
]


class HeisWord:
    """A word in the generators: tuple of letters ('e', n) or ('h*', n), n >= 1."""

    __slots__ = ('letters',)

    def __init__(self, letters):
        letters = tuple(letters)
        for kind, n in letters:
            if kind not in ('e', 'h*') or not (type(n) is int and n >= 1):
                raise ValueError(f'bad letter {(kind, n)!r}')
        object.__setattr__(self, 'letters', letters)

    def __setattr__(self, *a):
        raise AttributeError('HeisWord is immutable')

    def __eq__(self, other):
        return isinstance(other, HeisWord) and self.letters == other.letters

    def __repr__(self):
        return f'HeisWord({render_heisword(self)!r})'


def _normal_key(key):
    """Display order of e_lambda h_mu*: highest degree first, then by lambda, then mu."""
    lam, mu = key
    return -(sum(lam) + sum(mu)), partition_key(lam), partition_key(mu)


class HeisNormal(LinComb):
    """Integer combination of normal-form basis elements e_lambda h_mu*."""

    __slots__ = ()
    _ORDER = staticmethod(_normal_key)

    def __new__(cls, coeffs):
        for lam, mu in coeffs:
            if not (is_partition(lam) and is_partition(mu)):
                raise ValueError(f'not a pair of partitions: {(lam, mu)!r}')
        return cls._new(coeffs)

    def __mul__(self, other):
        if isinstance(other, HeisNormal):
            return heis_product(self, other)
        return NotImplemented

    def __repr__(self):
        return f'HeisNormal({render_heis(self)!r})'

    def terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: _normal_key(kv[0]))


def heis_unit():
    return HeisNormal({((), ()): 1})


def heis_e(lam):
    """The basis element e_lambda (no starred part)."""
    return HeisNormal({(tuple(lam), ()): 1})


def heis_hstar(mu):
    """The basis element h_mu* (no unstarred part)."""
    return HeisNormal({((), tuple(mu)): 1})


@lru_cache(maxsize=4096)
def _with_part(parts, n):
    """The partition parts with one more part n >= 1.

    Keeps up to 4096 inserts; `verify-all` at its defaults fills 91,
    and a 20 s `operator-session` benchmark run 659.
    """
    return tuple(sorted(parts + (n,), reverse=True))


@lru_cache(maxsize=4096)
def _hstar_past_e(mu, n):
    """The closed form of h_mu* e_n (module docstring) as (n - |S|, mu
    lowered on S, multiplicity) triples; the parts of one value are chosen
    together, with a binomial multiplicity."""
    terms = [(n, (), 1)]
    for v in sorted(set(mu), reverse=True):
        mult = mu.count(v)
        terms = [(k - j, parts + (v,) * (mult - j) + (v - 1,) * (j if v > 1 else 0),
                  c * comb(mult, j))
                 for k, parts, c in terms for j in range(min(mult, k) + 1)]
    return tuple(terms)


def _push(state, kind, n):
    """The normal-form map state ((lam, mu) -> coefficient) times one letter."""
    out = {}
    for (lam, mu), c in state.items():
        if kind == 'h*':
            terms = ((0, _with_part(mu, n), 1),)
        elif mu:
            terms = _hstar_past_e(mu, n)
        else:
            terms = ((n, (), 1),)
        for k, nu, b in terms:
            key = (_with_part(lam, k) if k else lam, nu)
            out[key] = out.get(key, 0) + b * c
    return out


def heis_normalize(w):
    """The e-left / h*-right normal form of a generator word.

    The word is read left to right into a map (lam, mu) -> coefficient of
    terms e_lam h_mu*: an h_m* joins mu, and an e_n is moved left past
    h_mu* in one closed-form step (see `_hstar_past_e`).

    >>> render_heis(heis_normalize(parse_heisword('e2')))
    'e[2]'
    >>> render_heis(heis_normalize(parse_heisword('h2* e1')))
    'e[1] h*[2] + h*[1]'
    """
    state = {((), ()): 1}
    for kind, n in w.letters:
        state = _push(state, kind, n)
    return HeisNormal._new(state)


def heis_normalize_single_step(w):
    """Oracle for heis_normalize: rewrite one adjacent pair at a time.

    The only non-commuting move is h_m* e_n = e_n h_m* + e_{n-1} h_{m-1}*
    (index-0 factors collapse to 1); each application removes one starred
    letter sitting left of an unstarred one, so the rewriting terminates.
    Its cost grows exponentially with the number of such pairs.
    """
    pending = {w.letters: 1}
    out = {}
    while pending:
        word, c = pending.popitem()
        for p in range(len(word) - 1):
            if word[p][0] == 'h*' and word[p + 1][0] == 'e':
                m, n = word[p][1], word[p + 1][1]
                swapped = word[:p] + (('e', n), ('h*', m)) + word[p + 2:]
                pending[swapped] = pending.get(swapped, 0) + c
                mid = tuple(x for x in ((('e', n - 1) if n > 1 else None),
                                        (('h*', m - 1) if m > 1 else None))
                            if x is not None)
                dropped = word[:p] + mid + word[p + 2:]
                pending[dropped] = pending.get(dropped, 0) + c
                break
        else:
            lam = tuple(sorted((n for kind, n in word if kind == 'e'), reverse=True))
            mu = tuple(sorted((n for kind, n in word if kind == 'h*'), reverse=True))
            out[(lam, mu)] = out.get((lam, mu), 0) + c
    return HeisNormal._new(out)


def heis_product(a, b):
    """Bilinear product: push each basis word of b onto a, letter by letter.

    >>> lhs = heis_product(heis_hstar((1,)), heis_e((1,)))
    >>> lhs == heis_e((1,)) * heis_hstar((1,)) + heis_unit()
    True
    """
    out = {}
    for (lam, mu), c in b.coeffs.items():
        state = a.coeffs
        for n in lam:
            state = _push(state, 'e', n)
        for n in mu:
            state = _push(state, 'h*', n)
        for key, k in state.items():
            out[key] = out.get(key, 0) + c * k
    return HeisNormal._new(out)


def _e_elem(lam):
    return SymFunc._new('e', {tuple(lam): 1})


def _h_elem(mu):
    return SymFunc._new('h', {tuple(mu): 1})


def fock_apply_schur(a, f):
    """The Fock action of a on f in the Schur basis, by the Pieri rules.

    The state is converted to s once; for each term e_lambda h_mu*, each
    part m of mu removes horizontal m-strips (h_m* s_kappa = s_(kappa/(m)))
    and then each part n of lambda adds vertical n-strips.

    >>> from symcat.symfunc import parse_symfunc, render
    >>> render(fock_apply_schur(heis_normalize(parse_heisword('e2 h1*')), parse_symfunc('s[2]')))
    's[2,1] + s[1,1,1]'
    """
    # the zero operator reads no state; any other raises NonIntegralResult
    # here on a state that is not integral in s
    state = convert(f, 's').coeffs if a.coeffs else {}
    out = {}
    for (lam, mu), c in a.coeffs.items():
        for nu, k in _pieri(_pieri(state, mu, False), lam, True, True).items():
            out[nu] = out.get(nu, 0) + c * k
    return SymFunc._new('s', out)


def fock_apply(a, f):
    """Act on Sym: e_lambda multiplies, h_mu* is the dual operator (acting first).

    On Schur functions these are the Pieri strip moves, so the result is
    `fock_apply_schur` in the monomial basis; `fock_apply_word`, which
    multiplies and takes adjoints letter by letter, is the oracle for both.

    >>> from symcat.symfunc import parse_symfunc, render
    >>> render(fock_apply(heis_hstar((1,)), parse_symfunc('s[1]')))
    'm[]'
    """
    return convert(fock_apply_schur(a, f), 'm')


def fock_apply_word(w, f):
    """Act letter by letter, rightmost letter first; no normalization involved."""
    g = f
    for kind, n in reversed(w.letters):
        if kind == 'e':
            g = multiply(g, _e_elem((n,)))
        else:
            g = dual_apply(_h_elem((n,)), g)
    return convert(g, 'm')


# Ceiling on the degree cutoff D of the three relation verifiers, checked
# before any work: each walks every s_lambda with |lambda| <= D.  As CLI runs
# with m = n = 1 on a 2-core VM, boson takes 4.7 s at D = 12 and 23 s at
# D = 14, and weak-fock 1.3 s at D = 12 and 24 s at D = 16.
MAX_DEGREE = 12


def _check_family(m, n, D):
    """The argument checks shared by the three relation verifiers."""
    if m < 1 or n < 1:
        raise ValueError('generator indices start at 1')
    if D < 0:
        raise ValueError('degree cutoff must be nonnegative')
    if D > MAX_DEGREE:
        raise BoundExceeded(f'degree cutoff {D} exceeds {MAX_DEGREE}')


def _schurs_up_to(degree):
    out = []
    for d in range(degree + 1):
        for lam in partitions_of(d):
            out.append((lam, SymFunc._new('s', {lam: 1})))
    return out


def verify_heis_relation(m, n, D):
    """Check h_m* e_n = e_n h_m* + e_{n-1} h_{m-1}* structurally and on Fock space.

    The structural side compares heis_product outputs; the operator side
    applies both sides letter by letter to every s_lambda with |lambda| <= D
    (independent of the normal-form rewriting), and also confirms that
    normalization preserves the Fock action on the same inputs.
    """
    _check_family(m, n, D)
    report = Report(m=m, n=n)
    lhs_word = HeisWord((('h*', m), ('e', n)))
    rhs_main = heis_product(heis_e((n,)), heis_hstar((m,)))
    lower = tuple(x for x in ((('e', n - 1) if n > 1 else None),
                              (('h*', m - 1) if m > 1 else None)) if x is not None)
    rhs_lower_word = HeisWord(lower)
    rhs = rhs_main + heis_normalize(rhs_lower_word)
    report.check('structural', heis_normalize(lhs_word) == rhs,
                 'normal form of h_m* e_n matches e_n h_m* + e_{n-1} h_{m-1}*')

    for lam, s in _schurs_up_to(D):
        got = fock_apply_word(lhs_word, s)
        want = fock_apply_word(HeisWord((('e', n), ('h*', m))), s) \
            + fock_apply_word(rhs_lower_word, s)
        where = {'lambda': list(lam)}
        report.check('operator', got == want, f'both sides applied to s_{list(lam)}', **where)
        report.check('normalize-compatible',
                     fock_apply(heis_normalize(lhs_word), s) == got,
                     f'normal form acts like the word on s_{list(lam)}', **where)
    return report.close(lambda bad: (
        f'Heisenberg relation check {bad["check"]!r} failed for (m, n) = ({m}, {n})'
        + (f" at lambda={bad['lambda']}" if 'lambda' in bad else '')))


def verify_boson_relation(m, n, D):
    """q_m p_n - p_n q_m = n delta_{m,n} id on s_lambda, |lambda| <= D.

    Here p_n is multiplication by the power sum and q_m = dual_apply(p_m, -);
    this is the rational presentation of the same algebra.
    """
    _check_family(m, n, D)
    p_m = SymFunc('p', {(m,): 1})
    p_n = SymFunc('p', {(n,): 1})
    report = Report(m=m, n=n)
    for lam, s in _schurs_up_to(D):
        qp = dual_apply(p_m, multiply(p_n, s))
        pq = multiply(p_n, dual_apply(p_m, s))
        want = (n if m == n else 0) * s
        report.check('boson-commutator', qp - pq == want, f'[q_{m}, p_{n}] on s_{list(lam)}',
                     **{'lambda': list(lam)})
    return report.close(('boson relation failed for (m, n) = ({m}, {n}) at '
                         'lambda={lambda}').format_map)


def specht_to_sym(lam):
    """Class of the Specht module S^lambda: the Schur function s_lambda.

    Induction with the sign representation of S_n then adds vertical
    n-strips (e_n) and restriction with the trivial one removes horizontal
    n-strips (h_n*), as in `fock_apply_schur`.

    >>> from symcat.symfunc import render
    >>> render(specht_to_sym((1, 1, 1)))
    's[1,1,1]'
    """
    return basis_element('s', lam)


def ind_class(M, N):
    """Induction product on representation classes: multiplication in Sym."""
    return multiply(M, N)


def res_class(M, N):
    """Restriction against M: the dual operator applied to N."""
    return dual_apply(M, N)


def verify_weak_fock(m, n, D):
    """The three induction/restriction commutation families on classes.

    Applied to every s_lambda with |lambda| <= D:
      Ind_{E_m} Ind_{E_n} = Ind_{E_n} Ind_{E_m},
      Res_{L_m} Res_{L_n} = Res_{L_n} Res_{L_m},
      Res_{L_m} Ind_{E_n} = Ind_{E_n} Res_{L_m} + Ind_{E_{n-1}} Res_{L_{m-1}}.
    """
    _check_family(m, n, D)
    e_m, e_n = _e_elem((m,)), _e_elem((n,))
    h_m, h_n = _h_elem((m,)), _h_elem((n,))
    one = SymFunc('m', {(): 1})
    e_lower = _e_elem((n - 1,)) if n > 1 else one
    h_lower = _h_elem((m - 1,)) if m > 1 else one
    report = Report(m=m, n=n)
    for lam, s in _schurs_up_to(D):
        where, detail = {'lambda': list(lam)}, f'on s_{list(lam)}'
        report.check('ind-ind-commute',
                     ind_class(e_m, ind_class(e_n, s)) == ind_class(e_n, ind_class(e_m, s)),
                     detail, **where)
        report.check('res-res-commute',
                     res_class(h_m, res_class(h_n, s)) == res_class(h_n, res_class(h_m, s)),
                     detail, **where)
        lhs = res_class(h_m, ind_class(e_n, s))
        rhs = ind_class(e_n, res_class(h_m, s)) \
            + ind_class(e_lower, res_class(h_lower, s))
        report.check('res-ind-exchange', lhs == rhs, detail, **where)
    return report.close(('class-level check {check!r} failed for (m, n) = ({m}, {n}) '
                         'at lambda={lambda}').format_map)


#################
# wire formats  #
#################

_LETTER_RE = re.compile(r'^(?P<kind>[eh])(?P<index>\d+)(?P<star>\*?)$')


def parse_heisword(text):
    """Parse a space-separated generator word like 'e3 h2* e1'; '1' is the unit.

    >>> parse_heisword('e3 h2* e1').letters
    (('e', 3), ('h*', 2), ('e', 1))
    """
    text = text.strip()
    if text in ('', '1'):
        return HeisWord(())
    letters = []
    for token in text.split():
        mo = _LETTER_RE.match(token)
        if not mo:
            raise ParseError(f'bad generator token {token!r}')
        kind, index, star = mo.group('kind'), int(mo.group('index')), mo.group('star')
        if kind == 'e' and star:
            raise ParseError(f'e-generators are unstarred: {token!r}')
        if kind == 'h' and not star:
            raise ParseError(f'h-generators must be starred: {token!r}')
        if index < 1:
            raise ParseError(f'generator indices start at 1: {token!r}')
        letters.append(('e', index) if kind == 'e' else ('h*', index))
    return HeisWord(letters)


def render_heisword(w):
    if not w.letters:
        return '1'
    return ' '.join(f'e{n}' if kind == 'e' else f'h{n}*' for kind, n in w.letters)


def render_heis(a):
    """Deterministic text form of a normal-form element.

    >>> render_heis(heis_e((2, 1)) - 3 * heis_hstar((1,)))
    'e[2,1] - 3 h*[1]'
    """
    pairs = []
    for (lam, mu), c in a.terms():
        factors = []
        if lam:
            factors.append('e[' + ','.join(map(str, lam)) + ']')
        if mu:
            factors.append('h*[' + ','.join(map(str, mu)) + ']')
        pairs.append((' '.join(factors), c))  # no factors: the bare constant
    return render_terms(pairs)


def heis_to_json(a):
    """JSON list of {e_partition, hstar_partition, coeff}, canonically ordered."""
    return json.dumps([{'e_partition': list(lam), 'hstar_partition': list(mu),
                        'coeff': c} for (lam, mu), c in a.terms()])


def heis_from_json(text):
    """Inverse of heis_to_json; malformed text or entries raise ParseError."""
    try:
        out = {}
        for entry in json.loads(text):
            key = (tuple(entry['e_partition']), tuple(entry['hstar_partition']))
            out[key] = out.get(key, 0) + entry['coeff']
        return HeisNormal(out)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f'bad HeisNormal JSON: {exc}') from None
