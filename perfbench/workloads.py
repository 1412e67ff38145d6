"""Seeded query lists for the two session workloads, and their answer checks.

A session runs in passes over a list of queries built from the seed (a
closed loop: one query starts when the previous one has returned).  In
`sym-session` each pass draws fresh arguments for the same kinds and sizes
at the same positions, from a partition pool fixed by the seed, so later
passes reuse some of what the program cached in earlier ones, but do not
repeat whole questions.  In `operator-session` each pass draws fresh
diagrams, words and elements of the same kinds and sizes, so that a
seed's percentiles rest on many draws, not on one list.  A query is (kind,
module, function name, args); the function is looked up at call time, so a
traced run sees the traced binding.

`sym-session` asks Sym and Fock-space questions at degree <= 10 through the
public symfunc/heisenberg API.  `operator-session` asks diagram, bimodule,
Heisenberg-normal-form, nilcoxeter and Weyl questions, none of which touch
the Sym tables.

Every answer is reduced to a canonical text (`canon`); for the default seed
its digest must equal the recorded one.  `identity_failures` checks a sample of answers against
independent identities, for any seed.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

from symcat import bimodel as bm
from symcat import combinatorics as cb
from symcat import diagcat as dg
from symcat import heisenberg as hs
from symcat import nilcoxeter as nc
from symcat import symfunc as sf
from symcat import weyl as wy
from symcat.errors import UnrealizableAtRank

SESSIONS = ('sym-session', 'operator-session')

# size -> parameters.  'full' is what the benchmark measures; 'tiny' keeps
# the same code paths for the smoke test.
SYM_SIZES = {
    # 45 = 9 degrees (2..10) x 5 bases: each count covers every pair equally
    'full': {'max_degree': 10, 'pool': 8, 'counts': {
        'convert': 90, 'multiply': 90, 'hall_pairing': 45,
        'lr_coefficients': 45, 'coproduct': 45, 'antipode': 45,
        'dual_apply': 45, 'fock_apply': 45}},
    'tiny': {'max_degree': 5, 'pool': 3, 'counts': {
        'convert': 5, 'multiply': 4, 'hall_pairing': 3, 'lr_coefficients': 3,
        'coproduct': 2, 'antipode': 2, 'dual_apply': 3, 'fock_apply': 3}},
}

OP_SIZES = {
    # mackey_check(5) and the braid relation at level 3 take 1.5-1.7 s each,
    # about a tenth of a run, so each pass stops at k <= 4 and braid <= 2.
    # verify_bimodule_iso(5) (0.3-0.45 s) would be a third of a pass, and
    # short passes give a steadier median pass.
    # Counts are multiples of the 14 signatures x 3 base ranks and of the
    # 15 inversion counts.
    'full': {'max_level': 3, 'max_k': 4, 'max_iso': 4, 'max_word': 12,
             'max_inversions': 14,
             'counts': {'simplify': 84, 'evaluate_closed': 20,
                        'diagram_to_map': 168, 'heis_normalize': 90,
                        'heis_product': 30, 'nc_product': 60,
                        'weyl_multiply': 60, 'weyl_apply': 40}},
    'tiny': {'max_level': 1, 'max_k': 2, 'max_iso': 2, 'max_word': 6,
             'max_inversions': 4,
             'counts': {'simplify': 4, 'evaluate_closed': 2,
                        'diagram_to_map': 4, 'heis_normalize': 3,
                        'heis_product': 2, 'nc_product': 3,
                        'weyl_multiply': 2, 'weyl_apply': 2}},
}

BASES = ('m', 'e', 'h', 'p', 's')


class Raised:
    """A query's exception, kept as its answer."""

    def __init__(self, exc):
        self.exc = exc


def call(query):
    """Run one query; a library exception becomes a Raised answer."""
    _kind, module, name, args = query
    try:
        return getattr(module, name)(*args)
    except Exception as exc:  # recorded and judged by the checks
        return Raised(exc)


###############
# sym-session #
###############

def _sym_elem(rng, pool, basis, d, terms):
    """`terms` basis elements of degree d (fewer if d has fewer partitions)."""
    lams = rng.sample(pool[d], min(len(pool[d]), terms))
    return sf.SymFunc(basis, {lam: rng.choice((1, 2, -1, 3)) for lam in lams})


def sym_queries(seed, size, pass_no):
    p = SYM_SIZES[size]
    top = p['max_degree']
    seeded = random.Random(f'sym-session:{seed}')
    pool = {d: seeded.sample(cb.partitions_of(d), min(p['pool'], len(cb.partitions_of(d))))
            for d in range(top + 1)}
    rng = random.Random(f'sym-session:{seed}:{pass_no}')
    small = [lam for d in range(4) for lam in cb.partitions_of(d)]
    out = []
    for kind, count in p['counts'].items():
        for i in range(count):
            # The seed and pass pick partitions and coefficients.  Degree,
            # basis, term count and degree split follow i, so every pass of
            # every seed asks for the same mix of sizes and routes.
            d = 2 + i % (top - 1)
            basis, other = BASES[i % 5], BASES[(i // 5) % 5]
            terms = 1 + (i // (top - 1)) % 2
            a = 1 + (i // (top - 1)) % (d - 1)
            if kind == 'convert':
                dst = other if other != basis else BASES[(i + 1) % 5]
                out.append((kind, sf, 'convert', (_sym_elem(rng, pool, basis, d, terms), dst)))
            elif kind == 'multiply':
                f = _sym_elem(rng, pool, basis, a, terms)
                g = _sym_elem(rng, pool, other, d - a, 1)
                out.append((kind, sf, 'multiply', (f, g)))
            elif kind == 'hall_pairing':
                f = _sym_elem(rng, pool, basis, d, terms)
                g = _sym_elem(rng, pool, other, d, 1)
                out.append((kind, sf, 'hall_pairing', (f, g)))
            elif kind == 'lr_coefficients':
                out.append((kind, sf, 'lr_coefficients',
                            (rng.choice(pool[a]), rng.choice(pool[d - a]))))
            elif kind in ('coproduct', 'antipode'):
                out.append((kind, sf, kind, (_sym_elem(rng, pool, basis, d, terms),)))
            elif kind == 'dual_apply':
                f = _sym_elem(rng, pool, 'hes'[i % 3], min(a, 3), 1)
                g = _sym_elem(rng, pool, basis, d, terms)
                out.append((kind, sf, 'dual_apply', (f, g)))
            else:  # fock_apply: e_lam h*_mu on a state, staying in degree <= top
                lam, mu = small[i % len(small)], small[(i // len(small) + i) % len(small)]
                if sum(mu) > top - sum(lam):
                    lam = ()
                state = max(sum(mu), min(d, top - sum(lam)))
                f = _sym_elem(rng, pool, basis, state, terms)
                out.append((kind, hs, 'fock_apply', (hs.HeisNormal({(lam, mu): 1}), f)))
    seeded.shuffle(out)  # the same order in every pass
    return out


def sym_warm_up(size):
    """Build the per-degree basis tables the session reads."""
    for d in range(SYM_SIZES[size]['max_degree'] + 1):
        m = sf.basis_element('m', cb.partitions_of(d)[-1])
        for target in ('s', 'h', 'e', 'p'):
            sf.convert(m, target)


####################
# operator-session #
####################

def _next_sig(sig, slice_):
    kind, i = slice_
    if kind == 'x':
        return sig[:i - 1] + sig[i] + sig[i - 1] + sig[i + 1:]
    if kind.startswith('cup'):
        return sig[:i - 1] + ('DU' if kind == 'cup+' else 'UD') + sig[i - 1:]
    return sig[:i - 1] + sig[i + 1:]


def _slice_options(sig, max_width):
    options = [('x', i) for i in range(1, len(sig))]
    if len(sig) + 2 <= max_width:
        options += [(c, i) for i in range(1, len(sig) + 2) for c in ('cup+', 'cup-')]
    options += [('cap+', i) for i in range(1, len(sig)) if sig[i - 1:i + 1] == 'DU']
    options += [('cap-', i) for i in range(1, len(sig)) if sig[i - 1:i + 1] == 'UD']
    return options


# every domain signature on 1..3 strands; with the base rank, the domain
# sets most of a diagram's matrix size, so queries cycle through them
SIGNATURES = tuple(''.join(letters) for n in range(1, 4)
                   for letters in itertools.product('UD', repeat=n))


def random_diagram(rng, sig, max_width=3, max_slices=6):
    """A diagram from sig on at most max_width strands at every height.

    Crossings repeat the previous one a third of the time, so double
    crossings, curls and circles -- the rewrites simplify knows -- occur.
    """
    slices, cur = [], sig
    for _ in range(rng.randint(1, max_slices)):
        options = _slice_options(cur, max_width)
        if not options:
            break
        if slices and slices[-1][0] == 'x' and rng.random() < 1 / 3:
            choice = slices[-1]
        else:
            choice = rng.choice(options)
        slices.append(choice)
        cur = _next_sig(cur, choice)
    return dg.Diagram(sig, slices)


def random_closed_diagram(rng):
    """Cups, then crossings, then caps until the signature is empty again."""
    slices, cur = [], ''
    for _ in range(rng.randint(1, 2)):
        cup = (rng.choice(('cup+', 'cup-')), rng.randint(1, len(cur) + 1))
        slices.append(cup)
        cur = _next_sig(cur, cup)
    for _ in range(rng.randint(0, 2)):
        if len(cur) >= 2:
            x = ('x', rng.randint(1, len(cur) - 1))
            slices.append(x)
            cur = _next_sig(cur, x)
    while cur:
        caps = [s for s in _slice_options(cur, len(cur)) if s[0].startswith('cap')]
        cap = rng.choice(caps)
        slices.append(cap)
        cur = _next_sig(cur, cap)
    return dg.Diagram('', slices)


def inversions(letters):
    """Pairs (h*, e) with the h* to the left: the rewrites a word needs."""
    count = es = 0
    for kind, _n in reversed(letters):
        if kind == 'e':
            es += 1
        else:
            count += es
    return count


def _heis_word(rng, max_length, target):
    """A word of length 4..max_length with exactly `target` inversions.

    Rewriting cost grows exponentially with the inversion count (about 1 ms
    at 10, 5-25 ms at 14, seconds past 24), so each word gets its count
    from a fixed schedule and a seed changes the words, not the cost mix.
    """
    while True:
        letters = [(rng.choice(('e', 'h*')), rng.randint(1, 3))
                   for _ in range(rng.randint(4, max_length))]
        if inversions(letters) == target:
            return hs.HeisWord(letters)


def _heis_elem(rng):
    small = [lam for d in range(4) for lam in cb.partitions_of(d)]
    return hs.HeisNormal({(rng.choice(small), rng.choice(small)): rng.choice((1, -1, 2))
                          for _ in range(rng.randint(1, 2))})


def _nc_elem(rng, n):
    perms = list(cb.all_perms(n))
    return nc.NilcoxElem(n, {rng.choice(perms): rng.choice((1, -1, 2))
                             for _ in range(rng.randint(1, 3))})


def _weyl_elem(rng):
    return wy.WeylElement({(rng.randint(0, 6), rng.randint(0, 6)): rng.choice((1, -1, 2, 3))
                           for _ in range(rng.randint(1, 3))})


def op_queries(seed, size, pass_no):
    p = OP_SIZES[size]
    rng = random.Random(f'operator-session:{seed}:{pass_no}')
    out = []
    for rel in bm.LOCAL_RELATIONS:
        for level in range(p['max_level'] + 1):
            if rel == 'braid' and level == 3:
                continue
            out.append(('verify_local_relation', bm, 'verify_local_relation', (rel, level)))
    out += [('mackey_check', bm, 'mackey_check', (k,)) for k in range(1, p['max_k'] + 1)]
    out += [('verify_bimodule_iso', nc, 'verify_bimodule_iso', (n,))
            for n in range(1, p['max_iso'] + 1)]
    for kind, count in p['counts'].items():
        for i in range(count):
            if kind == 'simplify':
                m = dg.Morphism.from_diagram(random_diagram(rng, SIGNATURES[i % len(SIGNATURES)]))
                out.append((kind, dg, 'simplify', (m,)))
            elif kind == 'evaluate_closed':
                m = dg.Morphism.from_diagram(random_closed_diagram(rng))
                out.append((kind, dg, 'evaluate_closed', (m,)))
            elif kind == 'diagram_to_map':
                sig, base = divmod(i % (3 * len(SIGNATURES)), 3)
                m = dg.Morphism.from_diagram(random_diagram(rng, SIGNATURES[sig]))
                out.append((kind, bm, 'diagram_to_map', (m, base)))
            elif kind == 'heis_normalize':
                w = _heis_word(rng, p['max_word'], i % (p['max_inversions'] + 1))
                out.append((kind, hs, 'heis_normalize', (w,)))
            elif kind == 'heis_product':
                out.append((kind, hs, 'heis_product', (_heis_elem(rng), _heis_elem(rng))))
            elif kind == 'nc_product':
                n = rng.randint(2, 5)
                out.append((kind, nc, 'nc_product', (_nc_elem(rng, n), _nc_elem(rng, n))))
            elif kind == 'weyl_multiply':
                out.append((kind, wy, 'weyl_multiply', (_weyl_elem(rng), _weyl_elem(rng))))
            else:  # weyl_apply
                lattice = rng.choice((wy.DIVIDED_POWERS, wy.MONOMIALS))
                v = wy.PolyVector(lattice, {rng.randint(0, 8): rng.choice((1, -1, 2))
                                            for _ in range(rng.randint(1, 3))})
                out.append((kind, wy, 'weyl_apply', (_weyl_elem(rng), v)))
    rng.shuffle(out)
    return out


def op_warm_up(size):
    """Load the lazily imported helpers and the small permutation caches."""
    circle = dg.Morphism.from_diagram(dg.Diagram('', (('cup+', 1), ('cap+', 1))))
    dg.evaluate_closed(circle)
    bm.diagram_to_map(circle, 1)
    for n in range(6):
        cb.partitions_of(n)


def queries(workload, seed, size, pass_no):
    """The queries of one pass; the same (seed, pass_no) gives the same list."""
    if workload == 'sym-session':
        return sym_queries(seed, size, pass_no)
    return op_queries(seed, size, pass_no)


def warm_up(workload, size):
    if workload == 'sym-session':
        sym_warm_up(size)
    else:
        op_warm_up(size)


##########
# checks #
##########

def canon(value):
    """Canonical text of an answer; equal answers give equal text."""
    if isinstance(value, Raised):
        return f'raises {type(value.exc).__name__}'
    if isinstance(value, sf.SymFunc):
        return f'{value.basis}: {sf.render(value)}'
    if isinstance(value, bm.LinearMapRep):
        return (f'{value.domain.levels} -> {value.codomain.levels}\n'
                + bm.matrix_text(value))
    if isinstance(value, dg.Morphism):
        return repr(sorted((dg.render_diagram(d), str(c)) for d, c in value.terms.items()))
    if isinstance(value, dg.Irreducible):
        return f'irreducible {value.scalar} {canon(value.stuck)}'
    if isinstance(value, (hs.HeisNormal, nc.NilcoxElem, wy.WeylElement, wy.PolyVector)):
        return f'{type(value).__name__} ' + repr(sorted(value.coeffs.items()))
    if isinstance(value, dict):  # lr_coefficients
        return repr(sorted(value.items()))
    if isinstance(value, list) and value and isinstance(value[0], dict):  # reports
        return repr([(e['check'], e['pass']) for e in value])
    if isinstance(value, list):  # coproduct triples
        return repr(sorted((sf.render(left), sf.render(right), str(c))
                           for c, left, right in value))
    return f'{type(value).__name__} {value}'


def digest(value):
    return hashlib.sha256(canon(value).encode()).hexdigest()[:16]


def _check_multiply(f, g, got):
    n = max(1, sf.degree(f) + sf.degree(g))
    want = sf.poly_mult(sf.monomial_expand(f, n), sf.monomial_expand(g, n))
    return sf.monomial_expand(got, n) == want


def _check_fock_word(a, state, got):
    ((lam, mu), _c), = a.coeffs.items()
    word = hs.HeisWord(tuple(('e', n) for n in lam) + tuple(('h*', n) for n in mu))
    return hs.fock_apply_word(word, state) == got


def _check_lr(lam, mu, got):
    want = bm.induced_character_decomposition(lam, mu)
    return {k: v for k, v in got.items() if v} == want


def _z(lam):
    """z_lam = prod i^{m_i} m_i!, the norm of p_lam."""
    out = 1
    for part in set(lam):
        mult = lam.count(part)
        out *= part ** mult * math.factorial(mult)
    return out


def pairing_via_p(f, g):
    """The Hall pairing through <p_lam, p_mu> = z_lam delta, not through m and h."""
    fp, gp = sf.convert(f, 'p'), sf.convert(g, 'p')
    return sum((c * gp.coeffs.get(lam, 0) * _z(lam) for lam, c in fp.coeffs.items()),
               Fraction(0))


def _check_dual_apply(f, g, got):
    """<a, f*(g)> = <f a, g> for a few Schur functions a."""
    for nu in cb.partitions_of(sf.degree(g) - sf.degree(f))[:3]:
        a = sf.basis_element('s', nu)
        if pairing_via_p(a, got) != pairing_via_p(sf.multiply(f, a), g):
            return False
    return True


def _check_coproduct(f, got):
    """<m_a (x) m_b, Delta f> = <m_a m_b, f> for one-row a and b."""
    d = sf.degree(f)
    for k in range(1, d):
        left, right = (k,), (d - k,)
        coeff = sum((c for c, x, y in got if x.coeffs == {left: 1} and y.coeffs == {right: 1}),
                    Fraction(0))
        product = sf.multiply(sf.basis_element('m', left), sf.basis_element('m', right))
        if coeff != pairing_via_p(product, f):
            return False
    return True


SYM_CHECKS = {
    # kind: (sample limit, admissible, check(args, answer))
    'multiply': (20, lambda a: sf.degree(a[0]) + sf.degree(a[1]) <= 6,
                 lambda a, got: _check_multiply(a[0], a[1], got)),
    'convert': (20, lambda a: sf.degree(a[0]) <= 6,
                lambda a, got: sf.monomial_expand(got, max(1, sf.degree(got)))
                == sf.monomial_expand(a[0], max(1, sf.degree(a[0])))),
    'lr_coefficients': (20, lambda a: sum(a[0]) + sum(a[1]) <= 7,
                        lambda a, got: _check_lr(a[0], a[1], got)),
    'antipode': (8, lambda a: sf.degree(a[0]) <= 6,
                 lambda a, got: sf.antipode(got) == a[0]),
    'fock_apply': (12, lambda a: sf.degree(a[1]) <= 6,
                   lambda a, got: _check_fock_word(a[0], a[1], got)),
    'hall_pairing': (20, lambda a: sf.degree(a[0]) <= 8,
                     lambda a, got: got == pairing_via_p(a[0], a[1])),
    'dual_apply': (10, lambda a: sf.degree(a[1]) <= 7,
                   lambda a, got: _check_dual_apply(a[0], a[1], got)),
    'coproduct': (10, lambda a: sf.degree(a[0]) <= 7,
                  lambda a, got: _check_coproduct(a[0], got)),
}


def _map_or_raise(m, base):
    try:
        return bm.diagram_to_map(m, base)
    except UnrealizableAtRank:
        return None


def _check_soundness(m, base, got):
    """diagram_to_map(simplify(m)) == diagram_to_map(m)."""
    if isinstance(got, Raised):  # no matrix to compare against
        return None
    simplified = _map_or_raise(dg.simplify(m), base)
    if simplified is None:  # the removed slices forced the zero module
        return got.is_zero()
    return simplified.matrix == got.matrix


def _check_closed(m, got):
    """A scalar evaluation acts as that scalar times the identity."""
    if not isinstance(got, Fraction):
        return True
    for base in range(3):
        rep = _map_or_raise(m, base)
        if rep is not None:
            ident = bm.LinearMapRep.identity(rep.domain)
            if rep.matrix != tuple(tuple(got * x for x in row) for row in ident.matrix):
                return False
    return True


def _small_states():
    return [sf.basis_element('s', lam) for d in range(3) for lam in cb.partitions_of(d)]


# The Fock action converts h*_mu to the Schur basis at degree |mu|, so the
# oracle is cheap only while both halves of an element stay at degree <= 6.
FOCK_CHECK_DEGREE = 6


def _degrees(a):
    return max((max(sum(lam), sum(mu)) for lam, mu in a.coeffs), default=0)


def _check_normal_form(word, got):
    if (max(sum(n for kind, n in word.letters if kind == k) for k in ('e', 'h*'))
            > FOCK_CHECK_DEGREE):
        return None
    return all(hs.fock_apply(got, s) == hs.fock_apply_word(word, s)
               for s in _small_states())


def _check_heis_product(a, b, got):
    if _degrees(a) + _degrees(b) > FOCK_CHECK_DEGREE:
        return None
    return all(hs.fock_apply(got, s) == hs.fock_apply(a, hs.fock_apply(b, s))
               for s in _small_states())


def _check_nc(a, b, got):
    if a.n > 4:
        return None
    want = nc.NilcoxElem(a.n, {})
    for s, c1 in a.coeffs.items():
        for t, c2 in b.coeffs.items():
            word = tuple(cb.reduced_word(s)) + tuple(cb.reduced_word(t))
            want = want + (c1 * c2) * nc.nc_word_eval(word, a.n)
    return got == want


def _all_pass(report):
    return all(entry['pass'] for entry in report)


OP_CHECKS = {
    'diagram_to_map': (40, None, lambda a, got: _check_soundness(a[0], a[1], got)),
    'evaluate_closed': (10, None, lambda a, got: _check_closed(a[0], got)),
    'heis_normalize': (8, None, lambda a, got: _check_normal_form(a[0], got)),
    'heis_product': (8, None, lambda a, got: _check_heis_product(a[0], a[1], got)),
    'nc_product': (30, None, lambda a, got: _check_nc(a[0], a[1], got)),
    'weyl_multiply': (None, None,
                      lambda a, got: wy.weyl_multiply_single_step(a[0], a[1]) == got),
    'weyl_apply': (None, None,
                   lambda a, got: wy.weyl_apply(wy.weyl_multiply(a[0], a[0]), a[1])
                   == wy.weyl_apply(a[0], wy.weyl_apply(a[0], a[1]))
                   and wy.weyl_apply(a[0], a[1]) == got),
    'verify_local_relation': (None, None, lambda a, got: _all_pass(got)),
    'mackey_check': (None, None, lambda a, got: _all_pass(got)),
    'verify_bimodule_iso': (None, None, lambda a, got: _all_pass(got)),
}

# answers that are a typed error the input demands
EXPECTED_ERRORS = {'diagram_to_map': (UnrealizableAtRank,)}


def identity_failures(workload, qs, answers):
    """Indices of queries whose answer fails an independent identity, and
    the number of answers checked per kind.

    Each kind is checked on up to its sample limit of admissible queries;
    an unexpected exception fails whatever its kind.
    """
    table = SYM_CHECKS if workload == 'sym-session' else OP_CHECKS
    bad, used = set(), {}
    for i, ((kind, _mod, _name, args), got) in enumerate(zip(qs, answers)):
        if isinstance(got, Raised):
            allowed = EXPECTED_ERRORS.get(kind, ())
            if not isinstance(got.exc, allowed):
                bad.add(i)
                continue
        if kind not in table:
            continue
        limit, admissible, check = table[kind]
        if limit is not None and used.get(kind, 0) >= limit:
            continue
        if admissible is not None and not admissible(args):
            continue
        verdict = check(args, got)
        if verdict is None:  # outside the range where the oracle is cheap
            continue
        used[kind] = used.get(kind, 0) + 1
        if not verdict:
            bad.add(i)
    return bad, used
