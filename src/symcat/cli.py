"""Command-line front end: per-algebra calculators plus a full invariant sweep.

Exit codes: 0 success, 1 a verification ran and failed, 2 bad input,
3 internal error.  Every verification subcommand accepts ``--json`` and then
emits ``{"version": ..., "cases": [...]}`` with one entry per check; the
output is deterministic so repeated runs are byte-identical.
"""

import argparse
import itertools
import json
import math
import random
import re
import sys
import traceback

from . import __version__
from . import bimodel as bm
from . import combinatorics as cb
from . import diagcat as dg
from . import heisenberg as hs
from . import nilcoxeter as nc
from . import symfunc as sf
from . import weyl as wy
from .errors import (
    BoundExceeded,
    FlavorMismatch,
    IllFormedSlice,
    InsufficientVariables,
    LatticeMismatch,
    NonIntegralResult,
    NotBraidOnly,
    ParseError,
    RankMismatch,
    SignatureMismatch,
    SymcatError,
    UnrealizableAtRank,
    VerificationFailure,
)

# Exceptions that mean the user handed us something malformed or out of range.
_USAGE_ERRORS = (
    ParseError,
    IllFormedSlice,
    SignatureMismatch,
    RankMismatch,
    FlavorMismatch,
    LatticeMismatch,
    NotBraidOnly,
    NonIntegralResult,
    InsufficientVariables,
    UnrealizableAtRank,
    BoundExceeded,
    ValueError,
)


##########################
# shared output helpers  #
##########################

def _print(args, text, payload=None):
    if getattr(args, 'json', False) and payload is not None:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _partition_table_text(table):
    """Render a partition -> integer table as compact JSON in display order."""
    keys = sorted(table, key=cb.partition_key)
    return json.dumps({cb.render_partition(k): int(table[k]) for k in keys},
                      separators=(',', ':'))


def _cases_from_report(report, module):
    """One case per report entry, its id the check name plus its tags."""
    cases = {}
    for entry in report:
        params = {key: entry[key] for key in ('relation', 'm', 'n', 'k', 'level', 'lambda')
                  if key in entry}
        tags = ','.join(f'{key}={cb.render_partition(tuple(v)) if key == "lambda" else v}'
                        for key, v in params.items())
        cid = entry['check'] + (f'[{tags}]' if tags else '')
        while cid in cases:
            cid += "'"
        cases[cid] = {
            'id': cid,
            'module': module,
            'parameters': params,
            'status': 'pass' if entry['pass'] else 'fail',
            'detail': entry['detail'],
        }
    return list(cases.values())


def _emit_cases(args, cases):
    """Print a case list (text or JSON) and return the exit code."""
    cases = sorted(cases, key=lambda c: (c['module'], c['id']))
    if getattr(args, 'json', False):
        print(json.dumps({'version': __version__, 'cases': cases},
                         indent=2, sort_keys=True))
    else:
        for case in cases:
            flag = {'pass': 'PASS', 'fail': 'FAIL', 'skipped': 'SKIP'}[case['status']]
            print(f"[{flag}] {case['module']}/{case['id']}  {case['detail']}")
        counts = {status: sum(c['status'] == status for c in cases)
                  for status in ('pass', 'fail', 'skipped')}
        print(f"{len(cases)} cases: {counts['pass']} passed, "
              f"{counts['fail']} failed, {counts['skipped']} skipped")
    return 1 if any(c['status'] == 'fail' for c in cases) else 0


##########################
# sym                    #
##########################

def _cmd_sym_convert(args):
    f = sf.convert(sf.parse_symfunc(args.expr), args.to)
    _print(args, sf.render(f), sf.to_json(f))
    return 0


def _cmd_sym_mul(args):
    f = sf.multiply(sf.parse_symfunc(args.left), sf.parse_symfunc(args.right))
    if args.to:
        f = sf.convert(f, args.to)
    _print(args, sf.render(f), sf.to_json(f))
    return 0


def _cmd_sym_pair(args):
    value = sf.hall_pairing(sf.parse_symfunc(args.left), sf.parse_symfunc(args.right))
    _print(args, str(value), {'value': str(value)})
    return 0


def _cmd_sym_schur(args):
    f = sf.schur(cb.parse_partition(args.partition))
    if args.to:
        f = sf.convert(f, args.to)
    _print(args, sf.render(f), sf.to_json(f))
    return 0


def _cmd_sym_lr(args):
    table = sf.lr_coefficients(cb.parse_partition(args.lam), cb.parse_partition(args.mu))
    print(_partition_table_text({k: v for k, v in table.items() if v}))
    return 0


def _cmd_sym_coproduct(args):
    triples = sf.coproduct(sf.parse_symfunc(args.expr))
    lines = [f'{c} | {sf.render(left)} | {sf.render(right)}'
             for c, left, right in triples]
    payload = [{'coeff': str(c), 'left': sf.render(left), 'right': sf.render(right)}
               for c, left, right in triples]
    _print(args, '\n'.join(lines) if lines else '0', payload)
    return 0


def _cmd_sym_antipode(args):
    f = sf.antipode(sf.parse_symfunc(args.expr))
    _print(args, sf.render(f), sf.to_json(f))
    return 0


##########################
# weyl                   #
##########################

def _cmd_weyl_normalize(args):
    acc = None
    for text in args.exprs:
        u = wy.parse_weyl(text)
        acc = u if acc is None else wy.weyl_multiply(acc, u)
    _print(args, wy.render_weyl(acc), {'result': wy.render_weyl(acc)})
    return 0


def _cmd_weyl_apply(args):
    out = wy.weyl_apply(wy.parse_weyl(args.expr), wy.parse_polyvector(args.vector))
    _print(args, wy.render_polyvector(out), {'result': wy.render_polyvector(out)})
    return 0


def _cmd_weyl_pair(args):
    value = wy.weyl_pairing(wy.parse_polyvector(args.left),
                            wy.parse_polyvector(args.right))
    _print(args, str(value), {'value': str(value)})
    return 0


##########################
# nilcox                 #
##########################

def _cmd_nilcox_mul(args):
    out = nc.nc_product(nc.parse_nilcox(args.left, args.n),
                        nc.parse_nilcox(args.right, args.n))
    _print(args, nc.render_nilcox(out), {'result': nc.render_nilcox(out)})
    return 0


def _cmd_nilcox_verify_iso(args):
    report = nc.verify_bimodule_iso(args.n)
    return _emit_cases(args, _cases_from_report(report, 'nilcoxeter'))


def _cmd_nilcox_k_maps(args):
    simple = wy.render_polyvector(nc.phi_G(nc.simple_class(args.n)))
    projective = wy.render_polyvector(nc.phi_K(nc.projective_class(args.n)))
    text = (f'phi_G [L_{args.n}] = {simple}\n'
            f'phi_K [N_{args.n}] = {projective}')
    _print(args, text, {'phi_G': simple, 'phi_K': projective})
    return 0


##########################
# heis                   #
##########################

def _cmd_heis_normalize(args):
    a = hs.heis_normalize(hs.parse_heisword(args.word))
    _print(args, hs.render_heis(a), hs.heis_to_json(a))
    return 0


def _cmd_heis_mul(args):
    a = hs.heis_product(hs.heis_normalize(hs.parse_heisword(args.left)),
                        hs.heis_normalize(hs.parse_heisword(args.right)))
    _print(args, hs.render_heis(a), hs.heis_to_json(a))
    return 0


def _cmd_heis_fock(args):
    state = hs.specht_to_sym(cb.parse_partition(args.state))
    out = hs.fock_apply_schur(hs.heis_normalize(hs.parse_heisword(args.word)), state)
    _print(args, sf.render(out), sf.to_json(out))
    return 0


_HEIS_FAMILIES = {
    'defining': hs.verify_heis_relation,
    'boson': hs.verify_boson_relation,
    'weak-fock': hs.verify_weak_fock,
}


def _cmd_heis_verify(args):
    report = _HEIS_FAMILIES[args.family](args.m, args.n, args.degree)
    return _emit_cases(args, _cases_from_report(report, 'heisenberg'))


##########################
# bimod                  #
##########################

def _cmd_bimod_verify_relations(args):
    if not 0 <= args.max_level <= bm.MAX_LEVEL:
        raise BoundExceeded(f'--max-level {args.max_level} outside 0..{bm.MAX_LEVEL}')
    relations = bm.LOCAL_RELATIONS if args.relation == 'all' else (args.relation,)
    report = []
    for relation in relations:
        for level in range(args.max_level + 1):
            report.extend(bm.verify_local_relation(relation, level,
                                                   max_level=args.max_level))
    return _emit_cases(args, _cases_from_report(report, 'bimodel'))


def _cmd_bimod_mackey(args):
    report = bm.mackey_check(args.k)
    return _emit_cases(args, _cases_from_report(report, 'bimodel'))


def _cmd_bimod_decompose(args):
    table = bm.induced_character_decomposition(cb.parse_partition(args.lam),
                                               cb.parse_partition(args.mu),
                                               bound=args.bound)
    print(_partition_table_text(table))
    return 0


##########################
# diag                   #
##########################

def _cmd_diag_parse(args):
    d = dg.parse_diagram(args.text)
    text = (f'{dg.render_diagram(d)}\n'
            f'domain: {d.domain or "(empty)"}\n'
            f'codomain: {d.codomain or "(empty)"}')
    _print(args, text, {'diagram': dg.render_diagram(d),
                        'domain': d.domain, 'codomain': d.codomain})
    return 0


def _cmd_diag_simplify(args):
    m = dg.simplify(dg.Morphism.from_diagram(dg.parse_diagram(args.text)))
    _print(args, dg.render_morphism(m), {'result': dg.render_morphism(m)})
    return 0


def _cmd_diag_eval(args):
    value = dg.evaluate_closed(dg.Morphism.from_diagram(dg.parse_diagram(args.text)))
    if isinstance(value, dg.Irreducible):
        stuck = dg.render_morphism(value.stuck)
        _print(args, f'{value.scalar} + unresolved: {stuck}',
               {'reducible': False, 'scalar': str(value.scalar), 'stuck': stuck})
    else:
        _print(args, str(value), {'reducible': True, 'value': str(value)})
    return 0


_OBJECT_RE = re.compile(r'^([SL])(\d+)$')


def _cmd_diag_k0(args):
    seq = []
    for token in args.objects:
        mo = _OBJECT_RE.match(token)
        if mo is None:
            raise ParseError(f'bad object token {token!r}: expected S<n> or L<n>')
        kind = dg.S_DOWN if mo.group(1) == 'S' else dg.LAMBDA_UP
        seq.append((kind, int(mo.group(2))))
    out = dg.k0_class(seq)
    _print(args, hs.render_heis(out), {'result': hs.render_heis(out)})
    return 0


##########################
# verify-all cases       #
##########################
# One runner per module invariant.  A runner takes the seeded generator and its
# bounds as keywords, returns a one-line detail and raises VerificationFailure
# on the first mismatch.  Each _CASES row derives the bounds from --max-degree
# and --max-rank; verify-all prints them as the case's parameters.

def _case_reduced_words(rng, max_n):
    checked = 0
    for n in range(1, max_n + 1):
        for w in cb.all_perms(n):
            word = cb.reduced_word(w)
            if cb.word_eval(word, n) != w or len(word) != cb.perm_length(w):
                raise VerificationFailure(f'reduced word of {w} does not round-trip')
            checked += 1
    return f'{checked} permutations across S_1..S_{max_n} round-trip through reduced words'


def _brute_partitions(n, biggest):
    if n == 0:
        return {()}
    return {(first,) + rest for first in range(min(n, biggest), 0, -1)
            for rest in _brute_partitions(n - first, first)}


def _case_partition_count(rng, max_n):
    counts = []
    for n in range(max_n + 1):
        parts = cb.partitions_of(n)
        if len(parts) != len(set(parts)) or set(parts) != _brute_partitions(n, n):
            raise VerificationFailure(f'partitions_of({n}) disagrees with direct enumeration')
        if any(sum(p) != n for p in parts):
            raise VerificationFailure(f'partitions_of({n}) contains a wrong-size entry')
        counts.append(len(parts))
    return f'p(0..{max_n}) = {counts}'


def _case_coset_bijection(rng, max_n):
    for n in range(1, max_n + 1):
        seen = set()
        for w in cb.all_perms(n + 1):
            i, rest = cb.coset_decompose(w)
            if not 1 <= i <= n + 1 or len(rest) != n:
                raise VerificationFailure(f'coset_decompose({w}) lands out of range')
            if cb.perm_mult(cb.coset_rep(i, n + 1), cb.perm_extend(rest, n + 1)) != w:
                raise VerificationFailure(f'coset factors of {w} do not recompose')
            seen.add((i, rest))
        if len(seen) != math.factorial(n + 1):
            raise VerificationFailure(f'coset decomposition repeats a pair on S_{n + 1}')
    return f'S_2..S_{max_n + 1} factor uniquely as coset representative times subgroup element'


def _case_product_oracle(rng, max_degree, nvars):
    # Both sides are symmetric polynomials: the expansion of the product, and
    # the product of two expansions.  A symmetric polynomial is fixed by its
    # coefficients at weakly decreasing exponents (its m-coefficients), so
    # comparing those decides whether the whole polynomials agree.
    elems = [(b, lam)
             for d in range(max_degree + 1)
             for lam in cb.partitions_of(d)
             for b in ('m', 'e', 'h', 's')]
    expanded = {key: sf.monomial_expand(sf.basis_element(*key), nvars)
                for key in elems}
    checked = 0
    for i, (b1, lam) in enumerate(elems):
        f = sf.basis_element(b1, lam)
        for b2, mu in elems[i:]:
            if sum(lam) + sum(mu) > max_degree:
                continue
            direct = sf.dominant_expand(sf.multiply(f, sf.basis_element(b2, mu)), nvars)
            if direct != sf.dominant_product(expanded[(b1, lam)], expanded[(b2, mu)],
                                             (sum(lam) + sum(mu),)):
                raise VerificationFailure(
                    f'{b1}{list(lam)} * {b2}{list(mu)} disagrees with the polynomial product')
            checked += 1
    return f'{checked} products expand identically in {nvars} variables'


def _case_basis_round_trip(rng, max_degree):
    checked = 0
    for d in range(max_degree + 1):
        for lam in cb.partitions_of(d):
            for b1 in ('m', 'e', 'h', 's'):
                f = sf.basis_element(b1, lam)
                for b2 in ('m', 'e', 'h', 's'):
                    if sf.convert(sf.convert(f, b2), b1) != f:
                        raise VerificationFailure(f'{b1}->{b2}->{b1} moves {b1}{list(lam)}')
                    checked += 1
    return f'{checked} conversions invert exactly up to degree {max_degree}'


def _case_hopf_pairing(rng, max_degree):
    checked = 0
    for total in range(max_degree + 1):
        for nu in cb.partitions_of(total):
            c = sf.basis_element('h', nu)
            cop = sf.coproduct(c)
            for da in range(total + 1):
                for lam in cb.partitions_of(da):
                    a = sf.basis_element('s', lam)
                    for mu in cb.partitions_of(total - da):
                        b = sf.basis_element('e', mu)
                        if sf.hall_pairing(sf.multiply(a, b), c) != sf.tensor_pairing(a, b, cop):
                            raise VerificationFailure(
                                f'<ab,c> != <a(x)b, Delta c> at ({list(lam)}, {list(mu)}, {list(nu)})')
                        checked += 1
    return f'{checked} triples satisfy the product/coproduct adjunction up to degree {max_degree}'


def _case_antipode_axiom(rng, max_degree):
    checked = 0
    for d in range(max_degree + 1):
        for lam in cb.partitions_of(d):
            for basis in ('m', 'e', 'h', 's'):
                f = sf.basis_element(basis, lam)
                acc = sf.zero('m')
                for c, left, right in sf.coproduct(f):
                    acc = acc + c * sf.convert(sf.multiply(sf.antipode(left), right), 'm')
                if acc != sf.counit(f) * sf.one('m'):
                    raise VerificationFailure(f'antipode axiom fails on {basis}{list(lam)}')
                checked += 1
    return f'{checked} elements satisfy mult(S (x) id) Delta = unit counit'


def _case_schur_triangular(rng, max_degree):
    for d in range(1, max_degree + 1):
        parts = cb.partitions_of(d)
        pos = {lam: i for i, lam in enumerate(parts)}
        for lam in parts:
            expansion = sf.convert(sf.basis_element('s', lam), 'm').coeffs
            if expansion.get(lam) != 1:
                raise VerificationFailure(f's{list(lam)} lacks a unit diagonal coefficient')
            for mu, coef in expansion.items():
                if coef <= 0 or pos[mu] < pos[lam] or not cb.dominates(lam, mu):
                    raise VerificationFailure(
                        f's{list(lam)} expansion breaks triangularity at m{list(mu)}')
    return f'Schur-to-monomial matrices are unitriangular with positive entries up to degree {max_degree}'


def _case_dual_apply(rng, max_degree):
    checked = 0
    for df in range(max_degree + 1):
        for da in range(max_degree + 1 - df):
            for lam in cb.partitions_of(df):
                f = sf.basis_element('h', lam)
                for mu in cb.partitions_of(da):
                    a = sf.basis_element('s', mu)
                    for nu in cb.partitions_of(df + da):
                        b = sf.basis_element('s', nu)
                        if sf.hall_pairing(a, sf.dual_apply(f, b)) != \
                                sf.hall_pairing(sf.multiply(f, a), b):
                            raise VerificationFailure(
                                f'lowering adjunction fails at ({list(lam)}, {list(mu)}, {list(nu)})')
                        checked += 1
    return f'{checked} triples satisfy <a, f*b> = <fa, b>'


def _case_weyl_action(rng, samples, max_degree):
    for _ in range(samples):
        u = wy.WeylElement({(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
                            for _ in range(2)})
        v = wy.WeylElement({(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
                            for _ in range(2)})
        uv = wy.weyl_multiply(u, v)
        for lattice in (wy.MONOMIALS, wy.DIVIDED_POWERS):
            for n in range(max_degree + 1):
                e_n = wy.PolyVector(lattice, {n: 1})
                if wy.weyl_apply(uv, e_n) != wy.weyl_apply(u, wy.weyl_apply(v, e_n)):
                    raise VerificationFailure(
                        'a normal-ordered product acts differently from the composition')
    return f'{samples} random products act as operator composition on both lattices'


def _case_weyl_adjoint(rng, max_degree):
    x = wy.WeylElement({(1, 0): 1})
    d = wy.WeylElement({(0, 1): 1})
    for n in range(max_degree + 1):
        for m in range(max_degree + 1):
            v = wy.PolyVector(wy.MONOMIALS, {n: 1})
            w = wy.PolyVector(wy.DIVIDED_POWERS, {m: 1})
            if wy.weyl_pairing(wy.weyl_apply(x, v), w) != \
                    wy.weyl_pairing(v, wy.weyl_apply(d, w)):
                raise VerificationFailure(f'<x v, w> != <v, d w> at degrees ({n}, {m})')
            if wy.weyl_pairing(wy.weyl_apply(d, v), w) != \
                    wy.weyl_pairing(v, wy.weyl_apply(x, w)):
                raise VerificationFailure(f'<d v, w> != <v, x w> at degrees ({n}, {m})')
    return f'x and d are mutually adjoint for the lattice pairing on degrees <= {max_degree}'


def _case_weyl_integrality(rng, samples):
    for _ in range(samples):
        u = wy.WeylElement({(rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-5, 5)
                            for _ in range(3)})
        for lattice in (wy.MONOMIALS, wy.DIVIDED_POWERS):
            v = wy.PolyVector(lattice, {rng.randint(0, 9): rng.randint(-4, 4)
                                        for _ in range(3)})
            if not all(isinstance(c, int) for c in wy.weyl_apply(u, v).coeffs.values()):
                raise VerificationFailure('an application produced a non-integer coordinate')
    return f'{samples} random applications stay integral on both lattices'


def _case_nc_relations(rng, max_n):
    checked = 0
    for n in range(2, max_n + 1):
        zero = nc.NilcoxElem(n, {})
        for i in range(1, n):
            g = nc.nc_generator(i, n)
            if nc.nc_product(g, g) != zero:
                raise VerificationFailure(f'u_{i} squared is nonzero in N_{n}')
            checked += 1
        for i in range(1, n - 1):
            if nc.nc_word_eval((i, i + 1, i), n) != nc.nc_word_eval((i + 1, i, i + 1), n):
                raise VerificationFailure(f'braid relation fails at u_{i} in N_{n}')
            checked += 1
        for i in range(1, n):
            for j in range(i + 2, n):
                if nc.nc_word_eval((i, j), n) != nc.nc_word_eval((j, i), n):
                    raise VerificationFailure(f'u_{i} and u_{j} do not commute in N_{n}')
                checked += 1
    return f'{checked} defining relations hold in N_2..N_{max_n}'


def _case_nc_squares(rng, max_n):
    report = [e for e in nc.verify_weyl_squares(max_n=max_n) if 'square' in e['check']]
    return f'{len(report)} induction/restriction squares commute with the class maps up to rank {max_n}'


def _case_nc_weyl_relation(rng, max_n):
    nc.verify_weyl_squares(max_n=max_n)
    return f'res o ind = ind o res + id on simple and projective classes up to rank {max_n}'


def _case_nc_adjoint(rng, max_n):
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            lhs = nc.k_pairing(nc.ind_K(nc.projective_class(m)), nc.simple_class(n))
            rhs = nc.k_pairing(nc.projective_class(m), nc.res_K(nc.simple_class(n)))
            if lhs != rhs:
                raise VerificationFailure(f'<ind N_{m}, L_{n}> != <N_{m}, res L_{n}>')
    return f'induction and restriction are adjoint under the class pairing for ranks <= {max_n}'


def _case_nc_bimodule_iso(rng, max_n):
    total = sum(len(nc.verify_bimodule_iso(n)) for n in range(1, max_n + 1))
    return f'{total} direct-sum decomposition checks pass for ranks 1..{max_n}'


def _case_heis_confluence(rng, samples, max_len, max_index):
    for _ in range(samples):
        letters = [('e' if rng.random() < 0.5 else 'h*', rng.randint(1, max_index))
                   for _ in range(rng.randint(0, max_len))]
        shuffled = list(letters)
        for _ in range(10):
            if len(shuffled) < 2:
                break
            p = rng.randint(0, len(shuffled) - 2)
            if shuffled[p][0] == shuffled[p + 1][0]:
                shuffled[p], shuffled[p + 1] = shuffled[p + 1], shuffled[p]
        word = hs.HeisWord(letters)
        normal = hs.heis_normalize(word)
        if normal != hs.heis_normalize_single_step(word):
            raise VerificationFailure(
                f'closed-form normal form differs from single-step rewriting for {letters}')
        if normal != hs.heis_normalize(hs.HeisWord(shuffled)):
            raise VerificationFailure(
                f'normal form depends on the order of commuting letters in {letters}')
    return f'{samples} random words normalize independently of commuting-letter order'


def _case_heis_faithful(rng, max_bidegree, max_state):
    small = [lam for d in range(max_bidegree + 1) for lam in cb.partitions_of(d)]
    inputs = [sf.basis_element('s', lam)
              for d in range(max_state + 1) for lam in cb.partitions_of(d)]
    seen = {}
    for lam in small:
        for mu in small:
            elem = hs.HeisNormal({(lam, mu): 1})
            # flat (partition, coefficient, ...) runs: as exact as the sorted
            # items, without one pair object per term held in `seen`
            fingerprint = tuple(tuple(itertools.chain.from_iterable(sorted(
                hs.fock_apply_schur(elem, f).coeffs.items()))) for f in inputs)
            if fingerprint in seen:
                raise VerificationFailure(
                    f'basis operators {seen[fingerprint]} and {(lam, mu)} act identically')
            seen[fingerprint] = (lam, mu)
    return (f'{len(seen)} basis operators of bidegree <= ({max_bidegree},{max_bidegree}) '
            f'are separated by states of size <= {max_state}')


def _case_heis_intertwine(rng, max_degree, max_n):
    checked = 0
    for n in range(1, max_n + 1):
        for d in range(max(0, max_degree + 1 - n)):
            for lam in cb.partitions_of(d):
                got = hs.fock_apply_schur(hs.heis_e((n,)), hs.specht_to_sym(lam))
                want = bm.induced_character_decomposition((1,) * n, lam, bound=max_degree)
                if got.coeffs != want:
                    raise VerificationFailure(
                        f'e_{n} acting on the class of {list(lam)} disagrees with the coefficient oracle')
                checked += 1
    return f'{checked} raising actions match the coefficient oracle up to degree {max_degree}'


def _case_heis_specht_pairing(rng, max_degree):
    checked = 0
    for d in range(max_degree + 1):
        parts = cb.partitions_of(d)
        for lam in parts:
            for mu in parts:
                want = 1 if lam == mu else 0
                if sf.hall_pairing(hs.specht_to_sym(lam), hs.specht_to_sym(mu)) != want:
                    raise VerificationFailure(f'classes of {list(lam)} and {list(mu)} pair to the wrong value')
                checked += 1
    return f'{checked} class pairings are orthonormal up to degree {max_degree}'


def _case_bm_local_relations(rng, max_level):
    entries = []
    for relation in bm.LOCAL_RELATIONS:
        for level in range(max_level + 1):
            entries.extend(bm.verify_local_relation(relation, level, max_level=max_level))
    return f'{len(entries)} matrix identities across the four relation families at levels <= {max_level}'


def _case_bm_mackey(rng, max_k):
    total = sum(len(bm.mackey_check(k)) for k in range(1, max_k + 1))
    return f'{total} decomposition checks for the two-sided restriction of an induction, k <= {max_k}'


def _case_bm_characters(rng, max_size):
    checked = 0
    for total in range(max_size + 1):
        for da in range(total + 1):
            for lam in cb.partitions_of(da):
                for mu in cb.partitions_of(total - da):
                    got = bm.induced_character_decomposition(lam, mu, bound=max_size)
                    want = {k: v for k, v in sf.lr_coefficients(lam, mu).items() if v}
                    if got != want:
                        raise VerificationFailure(
                            f'character decomposition of ({list(lam)}, {list(mu)}) '
                            f'disagrees with the coefficient oracle')
                    checked += 1
    return f'{checked} induced-module decompositions match the coefficient oracle, sizes <= {max_size}'


def _case_bm_idempotents(rng, max_n):
    for n in range(2, max_n + 1):
        e, ep = bm.symmetrizer(n), bm.antisymmetrizer(n)
        zero = bm.GroupAlgElem(n, {})
        if bm.ga_product(e, e) != e or bm.ga_product(ep, ep) != ep:
            raise VerificationFailure(f'an averaging element fails to square to itself at rank {n}')
        if bm.ga_product(e, ep) != zero or bm.ga_product(ep, e) != zero:
            raise VerificationFailure(f'the two averages are not orthogonal at rank {n}')
    return f"e(n) and e'(n) are orthogonal idempotents for 2 <= n <= {max_n}"


def _case_bm_rank_one(rng, max_n):
    for n in range(1, max_n + 1):
        for elem, name in ((bm.symmetrizer(n), 'e'), (bm.antisymmetrizer(n), "e'")):
            if bm.matrix_rank(bm.right_mult_matrix(elem)) != 1:
                raise VerificationFailure(f'right multiplication by {name}({n}) is not rank one')
    return f'right multiplication by either average has rank 1 for n <= {max_n}'


def _random_diagram(rng, max_sig=2, max_slices=5):
    sig = ''.join(rng.choice('UD') for _ in range(rng.randint(0, max_sig)))
    d = dg.Diagram(sig, ())
    for _ in range(rng.randint(0, max_slices)):
        cur = d.codomain
        options = [('x', i) for i in range(1, len(cur))]
        options += [(c, i) for i in range(1, len(cur) + 2) for c in ('cup+', 'cup-')]
        options += [('cap+', i) for i in range(1, len(cur)) if cur[i - 1:i + 1] == 'DU']
        options += [('cap-', i) for i in range(1, len(cur)) if cur[i - 1:i + 1] == 'UD']
        if not options:
            break
        d = dg.Diagram(sig, d.slices + (rng.choice(options),))
    return d


def _case_dg_idempotent(rng, samples):
    for _ in range(samples):
        once = dg.simplify(dg.Morphism.from_diagram(_random_diagram(rng)))
        if dg.simplify(once) != once:
            raise VerificationFailure('simplification is not idempotent on a random diagram')
    return f'simplify reached a fixed point on {samples} random diagrams'


def _case_dg_soundness(rng, samples, max_base):
    compared = 0
    for _ in range(samples):
        m = dg.Morphism.from_diagram(_random_diagram(rng))
        s = dg.simplify(m)
        for base in range(max_base + 1):
            try:
                want = bm.diagram_to_map(m, base)
            except UnrealizableAtRank:
                continue
            try:
                got = bm.diagram_to_map(s, base)
            except UnrealizableAtRank:
                # the removed slices were the ones forcing the zero module
                if not want.is_zero():
                    raise VerificationFailure(
                        'simplification dropped a diagram with a nonzero matrix')
                compared += 1
                continue
            if got != want:
                raise VerificationFailure(
                    f'simplification changed a matrix at base rank {base}')
            compared += 1
    return f'{compared} matrix comparisons agree across {samples} random diagrams'


def _case_dg_sym_homomorphism(rng, samples, rank):
    perms = list(cb.all_perms(rank))
    for _ in range(samples):
        u, v = rng.choice(perms), rng.choice(perms)
        stacked = dg.compose(dg.section(u), dg.section(v))
        if dg.sym_image(stacked) != bm.ga_perm(cb.perm_mult(u, v)):
            raise VerificationFailure(f'stacked crossing words of {u} and {v} map to the wrong product')
    return f'{samples} random stacked crossing words in S_{rank} map to group products'


def _case_dg_section_idempotents(rng, max_n):
    for n in range(1, max_n + 1):
        e_img = dg.sym_image(dg.section_of_elem(bm.symmetrizer(n)))
        ep_img = dg.sym_image(dg.section_of_elem(bm.antisymmetrizer(n)))
        if bm.ga_product(e_img, e_img) != e_img or bm.ga_product(ep_img, ep_img) != ep_img:
            raise VerificationFailure(f'a section image fails idempotence at rank {n}')
        if n >= 2:
            zero = bm.GroupAlgElem(n, {})
            if bm.ga_product(e_img, ep_img) != zero or bm.ga_product(ep_img, e_img) != zero:
                raise VerificationFailure(f'section images fail orthogonality at rank {n}')
    return f'section images of both averages are idempotent (and orthogonal from rank 2) for n <= {max_n}'


def _case_dg_k0(rng, max_m, max_n):
    entries = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            entries.extend(dg.verify_k0_relations(m, n))
    ranges = f'm, n <= {max_n}' if max_m == max_n else f'm <= {max_m}, 1 <= n <= {max_n}'
    return f'{len(entries)} class-level relations hold for 1 <= {ranges}'


# (module, id, uses the seeded generator, bounds from (--max-degree, --max-rank), runner)
_CASES = (
    ('combinatorics', 'reduced-word-round-trip', False,
     lambda D, N: {'max_n': 6}, _case_reduced_words),
    ('combinatorics', 'partition-count', False,
     lambda D, N: {'max_n': 8}, _case_partition_count),
    ('combinatorics', 'coset-decompose-bijection', False,
     lambda D, N: {'max_n': 5}, _case_coset_bijection),
    ('symfunc', 'product-oracle', False,
     lambda D, N: {'max_degree': min(5, D), 'nvars': 10}, _case_product_oracle),
    ('symfunc', 'basis-round-trip', False,
     lambda D, N: {'max_degree': D}, _case_basis_round_trip),
    ('symfunc', 'pairing-hopf-duality', False,
     lambda D, N: {'max_degree': D}, _case_hopf_pairing),
    ('symfunc', 'antipode-axiom', False,
     lambda D, N: {'max_degree': min(5, D)}, _case_antipode_axiom),
    ('symfunc', 'schur-unitriangular', False,
     lambda D, N: {'max_degree': D}, _case_schur_triangular),
    ('symfunc', 'dual-apply-adjoint', False,
     lambda D, N: {'max_degree': min(5, D)}, _case_dual_apply),
    ('weyl', 'normal-order-action', True,
     lambda D, N: {'samples': 25, 'max_degree': 12}, _case_weyl_action),
    ('weyl', 'pairing-adjoint', False,
     lambda D, N: {'max_degree': 10}, _case_weyl_adjoint),
    ('weyl', 'integrality', True,
     lambda D, N: {'samples': 20}, _case_weyl_integrality),
    ('nilcoxeter', 'defining-relations', False,
     lambda D, N: {'max_n': 6}, _case_nc_relations),
    ('nilcoxeter', 'weyl-squares', False,
     lambda D, N: {'max_n': 10}, _case_nc_squares),
    ('nilcoxeter', 'categorified-weyl-relation', False,
     lambda D, N: {'max_n': 10}, _case_nc_weyl_relation),
    ('nilcoxeter', 'k-adjointness', False,
     lambda D, N: {'max_n': 8}, _case_nc_adjoint),
    ('nilcoxeter', 'bimodule-iso', False,
     lambda D, N: {'max_n': 5}, _case_nc_bimodule_iso),
    ('heisenberg', 'normalize-confluence', True,
     lambda D, N: {'samples': 40, 'max_len': 6, 'max_index': 4}, _case_heis_confluence),
    ('heisenberg', 'fock-faithful-spot', False,
     lambda D, N: {'max_bidegree': 4, 'max_state': 8}, _case_heis_faithful),
    ('heisenberg', 'fock-intertwines-induction', False,
     lambda D, N: {'max_degree': D, 'max_n': 3}, _case_heis_intertwine),
    ('heisenberg', 'specht-pairing-orthonormal', False,
     lambda D, N: {'max_degree': D}, _case_heis_specht_pairing),
    ('bimodel', 'local-relations', False,
     lambda D, N: {'max_level': N}, _case_bm_local_relations),
    ('bimodel', 'mackey-decomposition', False,
     lambda D, N: {'max_k': 4}, _case_bm_mackey),
    ('bimodel', 'character-vs-lr', False,
     lambda D, N: {'max_size': min(D, 6)}, _case_bm_characters),
    ('bimodel', 'idempotents-orthogonal', False,
     lambda D, N: {'max_n': 5}, _case_bm_idempotents),
    ('bimodel', 'idempotent-rank-one', False,
     lambda D, N: {'max_n': 5}, _case_bm_rank_one),
    ('diagcat', 'simplify-idempotent', True,
     lambda D, N: {'samples': 60}, _case_dg_idempotent),
    ('diagcat', 'simplify-soundness', True,
     lambda D, N: {'samples': 40, 'max_base': 2}, _case_dg_soundness),
    ('diagcat', 'sym-image-homomorphism', True,
     lambda D, N: {'samples': 30, 'rank': 4}, _case_dg_sym_homomorphism),
    ('diagcat', 'section-idempotents', False,
     lambda D, N: {'max_n': 4}, _case_dg_section_idempotents),
    ('diagcat', 'k0-relations', False,
     lambda D, N: {'max_m': 4, 'max_n': 4}, _case_dg_k0),
)


def _cmd_verify_all(args):
    for flag, value in (('--max-degree', args.max_degree), ('--max-rank', args.max_rank)):
        if value < 0:
            raise BoundExceeded(f'{flag} {value} is negative')
    cases = []
    for module, cid, seeded, params_fn, run in _CASES:
        bounds = params_fn(args.max_degree, args.max_rank)
        try:
            detail, status = run(random.Random(f'{args.seed}:{module}/{cid}'), **bounds), 'pass'
        except VerificationFailure as exc:
            status, detail = 'fail', str(exc)
        except BoundExceeded as exc:
            status, detail = 'skipped', str(exc)
        cases.append({'id': cid, 'module': module, 'status': status, 'detail': detail,
                      'parameters': dict(bounds, seed=args.seed) if seeded else bounds})
    return _emit_cases(args, cases)


##########################
# parser                 #
##########################

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--json', action='store_true',
                        help='emit machine-readable JSON')

    parser = argparse.ArgumentParser(
        prog='symcat',
        description='exact calculators and relation checkers for the '
                    'categorified Heisenberg toolkit')
    top = parser.add_subparsers(dest='command', required=True)

    sym = top.add_parser('sym', help='symmetric functions').add_subparsers(
        dest='action', required=True)
    p = sym.add_parser('convert', parents=[common],
                       help='rewrite an element in another basis')
    p.add_argument('expr')
    p.add_argument('--to', required=True, choices=sf.BASES)
    p.set_defaults(func=_cmd_sym_convert)
    p = sym.add_parser('mul', parents=[common], help='multiply two elements')
    p.add_argument('left')
    p.add_argument('right')
    p.add_argument('--to', choices=sf.BASES)
    p.set_defaults(func=_cmd_sym_mul)
    p = sym.add_parser('pair', parents=[common], help='Hall pairing of two elements')
    p.add_argument('left')
    p.add_argument('right')
    p.set_defaults(func=_cmd_sym_pair)
    p = sym.add_parser('schur', parents=[common], help='Schur element of a partition')
    p.add_argument('partition')
    p.add_argument('--to', choices=sf.BASES)
    p.set_defaults(func=_cmd_sym_schur)
    p = sym.add_parser('lr', parents=[common],
                       help='structure constants of a product of Schur elements')
    p.add_argument('lam')
    p.add_argument('mu')
    p.set_defaults(func=_cmd_sym_lr)
    p = sym.add_parser('coproduct', parents=[common], help='coproduct as a sum of tensors')
    p.add_argument('expr')
    p.set_defaults(func=_cmd_sym_coproduct)
    p = sym.add_parser('antipode', parents=[common], help='apply the antipode')
    p.add_argument('expr')
    p.set_defaults(func=_cmd_sym_antipode)

    weyl = top.add_parser('weyl', help='integral Weyl algebra').add_subparsers(
        dest='action', required=True)
    p = weyl.add_parser('normalize', parents=[common],
                        help='normal-order a product of elements')
    p.add_argument('exprs', nargs='+')
    p.set_defaults(func=_cmd_weyl_normalize)
    p = weyl.add_parser('apply', parents=[common], help='apply an element to a lattice vector')
    p.add_argument('expr')
    p.add_argument('vector')
    p.set_defaults(func=_cmd_weyl_apply)
    p = weyl.add_parser('pair', parents=[common], help='pair vectors from the two lattices')
    p.add_argument('left')
    p.add_argument('right')
    p.set_defaults(func=_cmd_weyl_pair)

    nilcox = top.add_parser('nilcox', help='nilcoxeter algebras').add_subparsers(
        dest='action', required=True)
    p = nilcox.add_parser('mul', parents=[common], help='multiply two elements of N_n')
    p.add_argument('left')
    p.add_argument('right')
    p.add_argument('--n', type=int, required=True)
    p.set_defaults(func=_cmd_nilcox_mul)
    p = nilcox.add_parser('verify-iso', parents=[common],
                          help='check the induced-bimodule decomposition at rank n')
    p.add_argument('--n', type=int, required=True)
    p.set_defaults(func=_cmd_nilcox_verify_iso)
    p = nilcox.add_parser('k-maps', parents=[common],
                          help='images of the rank-n classes in the two lattices')
    p.add_argument('--n', type=int, required=True)
    p.set_defaults(func=_cmd_nilcox_k_maps)

    heis = top.add_parser('heis', help='integral Heisenberg algebra').add_subparsers(
        dest='action', required=True)
    p = heis.add_parser('normalize', parents=[common], help='normal form of a generator word')
    p.add_argument('word')
    p.set_defaults(func=_cmd_heis_normalize)
    p = heis.add_parser('mul', parents=[common], help='product of two generator words')
    p.add_argument('left')
    p.add_argument('right')
    p.set_defaults(func=_cmd_heis_mul)
    p = heis.add_parser('fock', parents=[common],
                        help='apply a generator word to a basis state')
    p.add_argument('word')
    p.add_argument('--state', default='[]', help="partition label, default '[]'")
    p.set_defaults(func=_cmd_heis_fock)
    p = heis.add_parser('verify', parents=[common], help='check a defining relation family')
    p.add_argument('--m', type=int, required=True)
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--degree', type=int, default=6)
    p.add_argument('--family', choices=sorted(_HEIS_FAMILIES), default='defining')
    p.set_defaults(func=_cmd_heis_verify)

    bimod = top.add_parser('bimod', help='symmetric-group bimodules').add_subparsers(
        dest='action', required=True)
    p = bimod.add_parser('verify-relations', parents=[common],
                         help='check the local diagram relations on matrices')
    p.add_argument('--relation', choices=bm.LOCAL_RELATIONS + ('all',), default='all')
    p.add_argument('--max-level', type=int, default=3)
    p.set_defaults(func=_cmd_bimod_verify_relations)
    p = bimod.add_parser('mackey', parents=[common],
                         help='check the restricted-induction decomposition')
    p.add_argument('--k', type=int, required=True)
    p.set_defaults(func=_cmd_bimod_mackey)
    p = bimod.add_parser('decompose', parents=[common],
                         help='decompose an induced product of two irreducibles')
    p.add_argument('lam')
    p.add_argument('mu')
    p.add_argument('--bound', type=int, default=7)
    p.set_defaults(func=_cmd_bimod_decompose)

    diag = top.add_parser('diag', help='string diagrams').add_subparsers(
        dest='action', required=True)
    p = diag.add_parser('parse', parents=[common], help='validate and echo a diagram')
    p.add_argument('text')
    p.set_defaults(func=_cmd_diag_parse)
    p = diag.add_parser('simplify', parents=[common], help='rewrite a diagram to normal shape')
    p.add_argument('text')
    p.set_defaults(func=_cmd_diag_simplify)
    p = diag.add_parser('eval', parents=[common], help='evaluate a closed diagram')
    p.add_argument('text')
    p.set_defaults(func=_cmd_diag_eval)
    p = diag.add_parser('k0', parents=[common],
                        help="class of a tensor product of objects, e.g. 'S2 L1'")
    p.add_argument('objects', nargs='*')
    p.set_defaults(func=_cmd_diag_k0)

    p = top.add_parser('verify-all', parents=[common],
                       help='run every module invariant and report per-case results')
    p.add_argument('--max-degree', type=int, default=6)
    p.add_argument('--max-rank', type=int, default=3)
    p.add_argument('--seed', type=int, default=0)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f'verification failed: {exc}', file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except SymcatError as exc:
        print(f'internal error: {exc}', file=sys.stderr)
        return 3
    except Exception as exc:  # the CLI boundary turns bugs into exit code 3
        traceback.print_exc()
        print(f'internal error: {exc}', file=sys.stderr)
        return 3


if __name__ == '__main__':
    sys.exit(main())
