"""Smoke test of the benchmark harness: every workload at toy size, both modes.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Checks that each run is correct and emits exactly the metric names listed in
BENCHMARK.json, that the child guards (address-space limit, deadline) hold,
and that the benchmark fails without a result where there is no program.
Takes about two minutes, most of it in verify-all, whose heaviest case
ignores the degree bound.
"""

import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(ROOT, 'BENCHMARK.json')) as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, 'perfbench', 'run.py'), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def check_workload(name):
    for trace, section in ((0, 'end_to_end'), (1, 'per_layer')):
        code, result = bench('--workload', name, '--seed', '3', '--seconds', '1',
                             '--trace', str(trace), '--size', 'tiny')
        assert code == 0, (name, trace, result)
        assert sorted(result) == ['attempted', 'correct', 'failed', 'metrics']
        assert result['correct'] and result['failed'] == 0 and result['attempted'] >= 1
        want = {m['name']: m['unit'] for m in SPEC[section]}
        got = {k: v['unit'] for k, v in result['metrics'].items()}
        assert got == want, (name, trace, set(got) ^ set(want))
        assert all(isinstance(v['value'], (int, float)) for v in result['metrics'].values())


def test_workload_names_match_spec():
    assert [w['name'] for w in SPEC['workloads']] == list(run.WORKLOADS)


def test_sym_session():
    check_workload('sym-session')


def test_operator_session():
    check_workload('operator-session')


def test_verify_all():
    check_workload('verify-all')


def test_passes_repeat_the_mix_with_fresh_arguments():
    import workloads
    for name in workloads.SESSIONS:
        first, again, second = (workloads.queries(name, 3, 'full', p) for p in (0, 0, 1))
        assert [repr(q[3]) for q in first] == [repr(q[3]) for q in again]
        assert sorted(q[0] for q in first) == sorted(q[0] for q in second)
        shared = {repr(q[3]) for q in first} & {repr(q[3]) for q in second}
        assert len(shared) < len(first) // 4, (name, len(shared))


def test_reference_clock_ticks_and_never_runs_backwards():
    import refclock
    clock = refclock.RefClock().start()
    try:
        reads, ends = [clock.now()], time.perf_counter() + 0.5
        while time.perf_counter() < ends:
            reads.append(clock.now())
    finally:
        clock.stop()
    assert len(clock.samples) > refclock.CALIBRATION, 'no tick came'
    assert clock.handler_s > 0
    assert all(a <= b for a, b in zip(reads, reads[1:]))
    assert reads[-1] > reads[0]


def test_default_seed_matches_recorded_answers():
    code, result = bench('--workload', 'operator-session', '--seed', '0', '--seconds', '0.2',
                         '--size', 'tiny')
    assert code == 0 and result['correct']


def test_child_deadline_kills():
    started = time.monotonic()
    try:
        run.run_child([sys.executable, '-c', 'import time; time.sleep(60)'], started + 1)
    except run.ChildFailed:
        pass
    else:
        raise AssertionError('a child past its deadline was not killed')
    assert time.monotonic() - started < 10


def test_child_address_space_limit():
    # the allocation is refused by the limit, so no memory is actually used
    _out, _wall, code = run.run_child(
        [sys.executable, '-c', f'bytearray({2 * run.ADDRESS_SPACE_LIMIT})'],
        time.monotonic() + 60)
    assert code != 0


def test_no_program_no_result():
    bare = os.path.join(BENCH_DIR, 'out', 'bare-checkout')
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, 'perfbench'),
                        ignore=shutil.ignore_patterns('out', '__pycache__'))
        code, result = bench('--workload', 'sym-session', '--seed', '1', '--seconds', '1',
                             '--trace', '0', cwd=bare)
        assert code != 0 and result is None
    finally:
        shutil.rmtree(bare)


def main():
    tests = [(k, v) for k, v in globals().items() if k.startswith('test_')]
    for name, test in tests:
        started = time.monotonic()
        test()
        print(f'ok   {name}  ({time.monotonic() - started:.1f} s)', flush=True)
    print(f'{len(tests)} passed')


if __name__ == '__main__':
    main()
