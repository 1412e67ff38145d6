"""Command-line front end: parses, runs a calculator or the `cases` sweep, prints.

Exit codes: 0 success, 1 a verification ran and failed, 2 bad input,
3 internal error.  Every verification subcommand accepts ``--json`` and then
emits ``{"version": ..., "cases": [...]}`` with one entry per check; the
output is deterministic so repeated runs are byte-identical.
"""

import argparse
import json
import re
import sys
import traceback

from . import __version__
from . import bimodel as bm
from . import cases
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
    report = bm.verify_local_relations(relations, args.max_level)
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
# verify-all             #
##########################

def _cmd_verify_all(args):
    for flag, value in (('--max-degree', args.max_degree), ('--max-rank', args.max_rank)):
        if value < 0:
            raise BoundExceeded(f'{flag} {value} is negative')
    results = []
    for case_id, (params_fn, _) in cases.CASES.items():
        bounds = params_fn(args.max_degree, args.max_rank)
        try:
            detail, status = cases.run_case(case_id, args.seed, **bounds), 'pass'
        except VerificationFailure as exc:
            status, detail = 'fail', str(exc)
        except BoundExceeded as exc:
            status, detail = 'skipped', str(exc)
        module, cid = case_id.split('/')
        results.append({'id': cid, 'module': module, 'status': status, 'detail': detail,
                        'parameters': dict(bounds, seed=args.seed) if cases.seeded(case_id)
                        else bounds})
    return _emit_cases(args, results)


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
