"""End-to-end checks for the command-line interface."""

import json
import subprocess
import sys
import time

import pytest

import symcat
from symcat import bimodel as bm, cases, cli, heisenberg as hs, symfunc as sf
from symcat.errors import (FlavorMismatch, InsufficientVariables, NotBraidOnly, RankMismatch,
                           SymcatError, UnrealizableAtRank, VerificationFailure)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _raiser(error):
    def raiser(*args, **kwargs):
        raise error
    return raiser


##########################
# pinned behaviors       #
##########################

def test_lr_pinned(capsys):
    code, out, _ = run_cli(capsys, 'sym', 'lr', '[1]', '[1]')
    assert code == 0
    assert out == '{"[2]":1,"[1,1]":1}\n'


def test_diag_eval_pinned(capsys):
    code, out, _ = run_cli(capsys, 'diag', 'eval', 'sig:; cup+1; cap+1')
    assert code == 0
    assert out == '1\n'


def test_heis_verify_pinned(capsys):
    code, out, _ = run_cli(capsys, 'heis', 'verify', '--m', '1', '--n', '1',
                           '--degree', '6')
    assert code == 0
    assert out.strip().splitlines()[-1].endswith('passed, 0 failed, 0 skipped')
    assert '[FAIL]' not in out


##########################
# calculators            #
##########################

def test_sym_commands(capsys):
    assert run_cli(capsys, 'sym', 'convert', 'h[2,1]', '--to', 's')[1] == \
        's[3] + s[2,1]\n'
    assert run_cli(capsys, 'sym', 'mul', 's[1]', 's[1]', '--to', 's')[1] == \
        's[2] + s[1,1]\n'
    assert run_cli(capsys, 'sym', 'pair', 's[2,1]', 's[2,1]')[1] == '1\n'
    assert run_cli(capsys, 'sym', 'schur', '[2,1]', '--to', 'm')[1] == \
        'm[2,1] + 2 m[1,1,1]\n'
    assert run_cli(capsys, 'sym', 'coproduct', 'h[2]')[1] == (
        '1 | h[] | h[2]\n'
        '1 | h[1] | h[1]\n'
        '1 | h[2] | h[]\n')
    assert run_cli(capsys, 'sym', 'antipode', 'e[2]')[1] == '-e[2] + e[1,1]\n'


def test_sym_hopf_maps_on_a_rational_powersum(capsys):
    # 1/2 p2 = h2 - 1/2 h11 lies outside Sym over Z: the coproduct keeps its
    # rational coefficients, the antipode (returned in p via h) refuses it
    assert run_cli(capsys, 'sym', 'coproduct', '1/2p[2]') == (0, (
        '1 | h[] | h[2]\n'
        '-1/2 | h[] | h[1,1]\n'
        '1 | h[2] | h[]\n'
        '-1/2 | h[1,1] | h[]\n'), '')
    assert run_cli(capsys, 'sym', 'coproduct', '1/2p[2]', '--json') == (0, (
        '[{"coeff": "1", "left": "h[]", "right": "h[2]"}, '
        '{"coeff": "-1/2", "left": "h[]", "right": "h[1,1]"}, '
        '{"coeff": "1", "left": "h[2]", "right": "h[]"}, '
        '{"coeff": "-1/2", "left": "h[1,1]", "right": "h[]"}]\n'), '')
    assert run_cli(capsys, 'sym', 'antipode', '1/2p[2]') == (
        2, '', "error: coefficient 1/2 of (1, 1) is not an integer in basis 'h'\n")


def test_weyl_commands(capsys):
    # normalize reorders d past x via the defining relation
    assert run_cli(capsys, 'weyl', 'normalize', 'd^1', 'x^1')[1] == \
        'x^1 d^1 + d^0\n'
    assert run_cli(capsys, 'weyl', 'apply', 'x^1 d^1', 'lattice:R [0,0,3]')[1] == \
        'lattice:R [0,0,6]\n'
    assert run_cli(capsys, 'weyl', 'pair', 'lattice:Rprime [0,2]',
                   'lattice:R [0,3]')[1] == '6\n'


def test_nilcox_commands(capsys):
    assert run_cli(capsys, 'nilcox', 'mul', 'u[1]', 'u[2,1]', '--n', '3')[1] == \
        'u[1,2,1]\n'
    code, out, _ = run_cli(capsys, 'nilcox', 'verify-iso', '--n', '2')
    assert code == 0 and '0 failed' in out
    code, out, _ = run_cli(capsys, 'nilcox', 'k-maps', '--n', '3')
    assert code == 0
    assert 'phi_G [L_3] = lattice:R [0,0,0,1]' in out
    assert 'phi_K [N_3] = lattice:Rprime [0,0,0,1]' in out


def test_heis_commands(capsys):
    assert run_cli(capsys, 'heis', 'normalize', 'h2* e1')[1] == \
        'e[1] h*[2] + h*[1]\n'
    assert run_cli(capsys, 'heis', 'mul', 'e1', 'h1*')[1] == 'e[1] h*[1]\n'
    assert run_cli(capsys, 'heis', 'fock', 'e2 e1')[1] == 's[2,1] + s[1,1,1]\n'
    assert run_cli(capsys, 'heis', 'fock', 'h1*', '--state', '[1]')[1] == 's[]\n'


def test_heis_normalize_many_inversions_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, 'heis', 'normalize', ' '.join(['h3*'] * 5 + ['e3'] * 5))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.startswith('e[3,3,3,3,3] h*[3,3,3,3,3] + ')


def test_heis_fock_large_state_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, 'heis', 'fock', 'e1', '--state', '[9,9,9]')
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == 's[10,9,9] + s[9,9,9,1]\n'


def test_sym_lr_large_pair_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, 'sym', 'lr', '[5,4,3]', '[4,3,2]')
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert '"[9,7,5]":1' in out and '"[7,6,5,2,1]":8' in out


def test_sym_convert_high_degree_h_to_s_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, 'sym', 'convert', 'h[30]', '--to', 's')
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out == 's[30]\n'


def test_sym_antipode_high_degree_schur_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, 'sym', 'antipode', 's[6,5,4,3,2,1]')
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out == '-s[6,5,4,3,2,1]\n'


def test_sym_convert_high_degree_m_to_s_is_fast(capsys):
    column = '[' + ','.join(['1'] * 20) + ']'
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, 'sym', 'convert', 'm' + column, '--to', 's')
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out == 's' + column + '\n'


def test_fock_intertwines_induction_uses_the_character_oracle(monkeypatch):
    from symcat import symfunc as sf

    def blocked(*args):
        raise AssertionError('the induction check reached the LR kernel')
    monkeypatch.setattr(sf, 'lr_coefficients', blocked)
    # the oracle's size bound is the case's max_degree, so degree 8 is checked
    assert cases.run_case('heisenberg/fock-intertwines-induction', max_degree=8, max_n=3) == \
        '94 raising actions match the coefficient oracle up to degree 8'


def test_bimod_commands(capsys):
    code, out, _ = run_cli(capsys, 'bimod', 'decompose', '[2,1]', '[2]')
    assert code == 0
    assert out == '{"[4,1]":1,"[3,2]":1,"[3,1,1]":1,"[2,2,1]":1}\n'
    code, out, _ = run_cli(capsys, 'bimod', 'mackey', '--k', '2')
    assert code == 0 and '0 failed' in out
    code, out, _ = run_cli(capsys, 'bimod', 'verify-relations',
                           '--relation', 'circle-curl', '--max-level', '1')
    assert code == 0 and '0 failed' in out


def test_verify_relations_level_ceiling_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, 'bimod', 'verify-relations', '--max-level', '5')
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ''
    assert 'outside 0..4' in err
    code, out, _ = run_cli(capsys, 'bimod', 'verify-relations', '--max-level', '-1')
    assert code == 2 and out == ''


def test_mackey_ceiling_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, 'bimod', 'mackey', '--k', '6')
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ''
    assert 'k = 6 exceeds 5' in err


def test_heis_verify_degree_ceiling_fails_fast(capsys):
    for family in ('defining', 'boson', 'weak-fock'):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, 'heis', 'verify', '--m', '1', '--n', '1',
                                 '--degree', '13', '--family', family)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ''
        assert 'degree cutoff 13 exceeds 12' in err


def test_diag_commands(capsys):
    code, out, _ = run_cli(capsys, 'diag', 'parse', 'sig:U; cup+2; cap-1')
    assert code == 0
    assert out == 'sig:U; cup+2; cap-1\ndomain: U\ncodomain: U\n'
    assert run_cli(capsys, 'diag', 'simplify', 'sig:UU; x1; x1')[1] == '[sig:UU]\n'
    assert run_cli(capsys, 'diag', 'k0', 'S1', 'L1')[1] == 'e[1] h*[1] + 1\n'
    assert run_cli(capsys, 'diag', 'k0')[1] == '1\n'
    # a clockwise circle has no assigned scalar and comes back unresolved
    code, out, _ = run_cli(capsys, 'diag', 'eval', 'sig:; cup-1; cap-1')
    assert code == 0
    assert out == '0 + unresolved: [sig:; cup-1; cap-1]\n'


def test_json_flag(capsys):
    code, out, _ = run_cli(capsys, 'sym', 'convert', 'h[2]', '--to', 'm', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['basis'] == 'm'
    assert run_cli(capsys, 'weyl', 'normalize', 'x^1', '--json')[1] == \
        '{"result": "x^1"}\n'
    code, out, _ = run_cli(capsys, 'heis', 'verify', '--m', '1', '--n', '1',
                           '--degree', '2', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['version'] == symcat.__version__
    assert all(entry['status'] == 'pass' for entry in payload['cases'])


##########################
# exit codes             #
##########################

def test_usage_errors_exit_2(capsys, monkeypatch):
    for argv in (('sym', 'convert', 'h[2,1', '--to', 's'),
                 ('diag', 'parse', 'sig:U; x1'),
                 ('weyl', 'pair', 'lattice:R [1]', 'lattice:R [1]'),
                 ('bimod', 'decompose', '[4,2]', '[2]'),
                 ('nilcox', 'mul', 'u[1,1]', 'u[]', '--n', '2'),
                 ('diag', 'k0', 'Q3'),
                 ('diag', 'eval', 'sig:U'),  # SignatureMismatch
                 ('sym', 'pair', 'p[1]', '1/2 p[2]'),  # NonIntegralResult
                 ('bimod', 'mackey', '--k', '0')):  # ValueError
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith('error:')
        assert out == ''
    # the usage errors that no command raises on its own input
    for error in (InsufficientVariables, RankMismatch, FlavorMismatch, NotBraidOnly,
                  UnrealizableAtRank):
        monkeypatch.setattr(cli.sf, 'convert', _raiser(error('forced')))
        assert run_cli(capsys, 'sym', 'convert', 'h[1]', '--to', 'm') == \
            (2, '', 'error: forced\n'), error


def test_unexpected_errors_exit_3(capsys, monkeypatch):
    for error in (KeyError('forced'), SymcatError('forced')):
        monkeypatch.setattr(cli.sf, 'convert', _raiser(error))
        code, out, err = run_cli(capsys, 'sym', 'convert', 'h[1]', '--to', 'm')
        assert (code, out) == (3, '')
        assert err.endswith(f'internal error: {error}\n')
        # a bug outside the error classes prints its traceback first
        assert err.startswith('Traceback') == (type(error) is KeyError)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(['bogus'])
    assert exc.value.code == 2


def test_failing_report_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._HEIS_FAMILIES, 'defining',
        lambda m, n, D: [{'check': 'forced', 'm': m, 'n': n,
                          'pass': False, 'detail': 'forced failure'}])
    code, out, _ = run_cli(capsys, 'heis', 'verify', '--m', '1', '--n', '1')
    assert code == 1
    assert '[FAIL] heisenberg/forced[m=1,n=1]  forced failure' in out


def test_verification_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.bm, 'induced_character_decomposition',
                        _raiser(VerificationFailure('forced')))
    code, _, err = run_cli(capsys, 'bimod', 'decompose', '[1]', '[1]')
    assert code == 1
    assert err.startswith('verification failed:')


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, '-m', 'symcat.cli', 'diag', 'eval', 'sig:; cup+1; cap+1'],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == '1\n'


##########################
# verify-all             #
##########################

def test_verify_all_defaults_all_pass(capsys):
    code, out, _ = run_cli(capsys, 'verify-all')
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == '31 cases: 31 passed, 0 failed, 0 skipped'
    assert all(line.startswith('[PASS]') for line in lines[:-1])
    # one case per module invariant, in (module, id) order
    keys = [tuple(line.split()[1].split('/')) for line in lines[:-1]]
    assert keys == sorted(keys)
    assert len(set(keys)) == 31


def test_verify_all_json_byte_identical(capsys):
    argv = ('verify-all', '--max-degree', '0', '--max-rank', '0', '--json')
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload['version'] == symcat.__version__
    assert len(payload['cases']) == 31
    for case in payload['cases']:
        assert set(case) == {'id', 'module', 'parameters', 'status', 'detail'}
        assert case['status'] == 'pass'


def test_verify_all_negative_bounds_exit_2(capsys):
    for flag in ('--max-degree', '--max-rank'):
        code, out, err = run_cli(capsys, 'verify-all', flag, '-1')
        assert code == 2, flag
        assert err == f'error: {flag} -1 is negative\n'
        assert out == ''


def test_verify_all_runners_take_exactly_their_parameters():
    import inspect
    for case_id, (params_fn, run) in cases.CASES.items():
        params = inspect.signature(run).parameters
        rng = ['rng'] if cases.seeded(case_id) else []
        assert list(params) == rng + list(params_fn(6, 3)), case_id
        assert all(p.default is inspect.Parameter.empty for p in params.values()), case_id
    assert sum(map(cases.seeded, cases.CASES)) == 6


def test_run_case_unknown_id_raises():
    with pytest.raises(KeyError):
        cases.run_case('symfunc/no-such-case')
    # an id is module/name, as verify-all prints it
    with pytest.raises(KeyError):
        cases.run_case('product-oracle', max_degree=1, nvars=2)


# (module, memoised kernel, the arguments of the entry to corrupt, corruption,
#  the case that must then raise VerificationFailure, its bounds, the message)
FAULT_ROWS = [
    (sf, '_skew', ((1,), (1,), True),  # s1 s1 without s[1,1]
     lambda items: tuple(item for item in items if item[0] != (1, 1)),
     'symfunc/pairing-hopf-duality', {'max_degree': 4},
     '<ab,c> != <a(x)b, Delta c> at ([1], [1], [1, 1])'),
    (sf, '_coproduct_h', ((2,),),  # the last coefficient of Delta(h2) + 1
     lambda items: items[:-1] + ((items[-1][0], items[-1][1] + 1),),
     'symfunc/pairing-hopf-duality', {'max_degree': 4},
     '<ab,c> != <a(x)b, Delta c> at ([2], [], [2])'),
    (sf, '_row', ('h', 's', (1,)),  # h1 = 2 s1: the left side's h -> s row
     lambda items: ((items[0][0], items[0][1] + 1),),
     'symfunc/pairing-hopf-duality', {'max_degree': 4},
     '<ab,c> != <a(x)b, Delta c> at ([], [1], [1])'),
    (sf, '_row', ('s', 'h', (2,)),  # s2 = 2 h2 in products: pairs fail at several nu,
     lambda items: ((items[0][0], items[0][1] + 1),),  # so this pins the (nu, lam, mu) order
     'symfunc/pairing-hopf-duality', {'max_degree': 4},
     '<ab,c> != <a(x)b, Delta c> at ([2], [1, 1], [4])'),
    (sf, '_hooks', ((1, 1), 1, False),  # the one-box special rim hook of s11 negated,
     lambda hooks: tuple((nu, -sign) for nu, sign in hooks),  # so s11 -> h reads -h11 - h2
     'symfunc/basis-round-trip', {'max_degree': 4},
     'm->e->m moves m[2]'),
    (sf, '_packed_row', ('s', 'e', (4, 3)),  # packed s43 -> e + 1: its lowest slot, e[7] on
     lambda packed: (packed[0] + 1, packed[1]),  # little-endian bytes, read by the m -> e rows
     'symfunc/basis-round-trip', {'max_degree': 7},
     'm->e->m moves m[5, 2]'),
    (hs, '_hstar_past_e', ((1,), 1),  # every multiplicity of h1* e1 + 1
     lambda terms: tuple((k, parts, c + 1) for k, parts, c in terms),
     'heisenberg/normalize-confluence', {'samples': 40, 'max_len': 6, 'max_index': 4},
     "closed-form normal form differs from single-step rewriting for "
     "[('e', 2), ('h*', 1), ('e', 1)]"),
    (bm, '_mn_character', ((1, 3), (3,)),  # chi^(2,1) at a 3-cycle, negated
     lambda value: -value,
     'bimodel/character-vs-lr', {'max_size': 4},
     'non-integral multiplicity 2/3 for (4,)'),
    (bm, '_slice_ranks', (bm.path_from_signature('UUU', 2), ('x', 1), 0),  # x1 on the first
     lambda ranks: (ranks[0] + 1,),  # level-2 braid tensor, read one rank too far
     'bimodel/local-relations', {'max_level': 2},
     "local relation 'braid' fails at level 2: x1 x2 x1 = x2 x1 x2 on UUU; "
     "first difference at entry (0, 54): 0 != 1"),
    (sf, '_row', ('s', 'h', (2, 1)),  # s21 = h111 - h21 (it is h21 - h3): read by Schur
     lambda items: (((2, 1), -1), ((1, 1, 1), 1)),  # products and, transposed, by m -> s
     'symfunc/product-oracle', {'max_degree': 5, 'nvars': 10},
     'e[] * m[3] disagrees with the polynomial product'),
    (sf, '_row', ('s', 'm', (2, 1)),  # K_{21,111} = 3, not 2: still unitriangular,
     lambda items: (items[0], (items[1][0], 3)),  # so every m row solves
     'symfunc/product-oracle', {'max_degree': 5, 'nvars': 10},
     'm[] * e[2, 1] disagrees with the polynomial product'),
    (sf, '_m_mult_basis', ((1,), (2,)),  # m1 m2 = m3 + 2 m21, not m3 + m21
     lambda items: (((3,), 1), ((2, 1), 2)),
     'symfunc/product-oracle', {'max_degree': 5, 'nvars': 10},
     'm[1] * m[2] disagrees with the polynomial product'),
    (sf, '_p_times', ({(1,): 1}, (1,)),  # m1 p1 = m2 + m11, not m2 + 2 m11
     lambda coeffs: {**coeffs, (1, 1): coeffs[(1, 1)] - 1},
     'symfunc/product-oracle', {'max_degree': 5, 'nvars': 10},
     'm[1] * m[1] disagrees with the polynomial product'),
    (sf, '_strips', ((1,), 1, True, False),  # the horizontal 1-strips grown on s1
     lambda strips: strips[:1],  # without (2,), so s1 h1 = s11
     'symfunc/product-oracle', {'max_degree': 5, 'nvars': 10},
     'm[] * h[1, 1] disagrees with the polynomial product'),
    (sf, '_row', ('e', 'h', (2, 1)),  # e21 = h111 - 2 h21 + h3, which is e3: the
     lambda items: (((3,), 1), ((2, 1), -2), ((1, 1, 1), 1)),  # antipode reads it
     'symfunc/antipode-axiom', {'max_degree': 5}, 'antipode axiom fails on m[3]'),
]


@pytest.mark.parametrize('module, kernel, key, corrupt, case_id, bounds, message', FAULT_ROWS,
                         ids=[row[1] for row in FAULT_ROWS])
def test_fault_row_makes_its_case_raise(fresh_memos, monkeypatch,
                                        module, kernel, key, corrupt, case_id, bounds, message):
    true_kernel = getattr(module, kernel)
    reads = []

    def corrupted(*args):
        out = true_kernel(*args)
        if args == key:
            reads.append(args)
            return corrupt(out)
        return out

    monkeypatch.setattr(module, kernel, corrupted)
    with pytest.raises(VerificationFailure) as info:
        cases.run_case(case_id, seed=0, **bounds)
    assert reads, 'the corrupted entry was never read'
    assert str(info.value) == message


def test_verify_all_runner_above_its_cli_bound():
    # --max-degree caps character-vs-lr at size 6; a direct call goes past it
    assert cases.run_case('bimodel/character-vs-lr', max_size=8) == \
        '434 induced-module decompositions match the coefficient oracle, sizes <= 8'
