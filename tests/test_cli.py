"""End-to-end checks for the command-line interface."""

import json
import subprocess
import sys
import time

import pytest

import symcat
from symcat import cli
from symcat.errors import VerificationFailure


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

def test_usage_errors_exit_2(capsys):
    for argv in (('sym', 'convert', 'h[2,1', '--to', 's'),
                 ('diag', 'parse', 'sig:U; x1'),
                 ('weyl', 'pair', 'lattice:R [1]', 'lattice:R [1]'),
                 ('bimod', 'decompose', '[4,2]', '[2]'),
                 ('nilcox', 'mul', 'u[1,1]', 'u[]', '--n', '2'),
                 ('diag', 'k0', 'Q3')):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith('error:')
        assert out == ''


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
    def raiser(*args, **kwargs):
        raise VerificationFailure('forced')
    monkeypatch.setattr(cli.bm, 'induced_character_decomposition', raiser)
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
