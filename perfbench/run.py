"""symcat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-all|sym-session|operator-session
                             --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; the program is imported from `src/`
and nothing is built or installed.  Every workload runs in child processes
(one at a time, no threads) with an address-space limit and a timeout, and
the last line printed is the JSON result:
{"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run plus
the tracing overhead.  Times are seconds at a fixed reference speed, read
from `refclock.RefClock` (see RATIONALE.md).  The line before the result
holds the run's provenance.
Exit status: 0 when every answer was correct, 1 when a check failed or a
child was killed, 2 when the checkout holds no program to measure.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from worker import (DEFAULT_SEED, VERIFY_CASES, percentile,  # noqa: E402
                    recorded_answers, verify_argv)

WORKLOADS = ('verify-all', 'sym-session', 'operator-session')
ADDRESS_SPACE_LIMIT = 1536 * 2 ** 20   # per child; the largest normal run uses < 150 MB
RUN_BUDGET_S = 170                     # every child of one run must end by then
# fresh-process set-ups per run, half before and half after the measured
# work so that they meet different moments of a shared CPU; setup_s is the
# median of them
SETUP_SAMPLES = {'verify-all': 21, 'sym-session': 5, 'operator-session': 21}


class ChildFailed(Exception):
    """A child process timed out, crashed or printed no report."""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_child(argv, deadline):
    """Run argv to completion; returns (stdout bytes, wall s, exit code).

    The child gets the address-space limit; past the run's deadline it is
    killed and reaped, and ChildFailed is raised.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f'no time left for {argv[1:3]}')
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, 'src'))
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                              timeout=timeout, preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f'{argv[1:3]} killed after {timeout:.0f} s') from None
    return proc.stdout, time.perf_counter() - started, proc.returncode


def run_worker(args, deadline):
    stdout, _wall, code = run_child(
        [sys.executable, os.path.join(BENCH_DIR, 'worker.py')] + args, deadline)
    lines = stdout.decode().strip().splitlines()
    if code != 0 or not lines:
        raise ChildFailed(f'worker {args[:2]} exited with {code}')
    return json.loads(lines[-1])


def setup_samples(workload, seed, size, count, deadline):
    return [run_worker(['setup', workload, '--seed', str(seed), '--size', size],
                       deadline)['setup_s'] for _ in range(count)]


def metric(value, unit):
    return {'value': value, 'unit': unit}


########################
# end-to-end, untraced #
########################

def measure_verify_all(seed, seconds, size, deadline):
    """verify-all in fresh worker processes, one after another, until
    `seconds` have passed (at least one)."""
    count = SETUP_SAMPLES['verify-all']
    setups = setup_samples('verify-all', seed, size, count // 2, deadline)
    args = ['verify-all', '--seed', str(seed), '--size', size]
    runs, started = [], time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        runs.append(run_worker(args, deadline))
    setups += setup_samples('verify-all', seed, size, count - count // 2, deadline)
    recorded = recorded_answers('verify-all', size, seed)
    walls = sorted(r['wall_s'] for r in runs)
    attempted = VERIFY_CASES * len(runs)
    failed = attempted - sum(r['passed_cases'] for r in runs)
    digests = {r['stdout_sha256'] for r in runs}
    correct = (failed == 0 and all(r['exit_code'] == 0 for r in runs)
               and len(digests) == 1 and (recorded is None or digests == {recorded}))
    metrics = {
        'setup_s': metric(statistics.median(setups), 's'),
        'wall_s': metric(statistics.median(walls), 's'),
        'ops_per_s': metric((attempted - failed) / sum(walls), '1/s'),
        'latency_p50_ms': metric(percentile(walls, 0.5) * 1000, 'ms'),
        'latency_p90_ms': metric(percentile(walls, 0.9) * 1000, 'ms'),
        'peak_rss_mb': metric(max(r['peak_rss_mb'] for r in runs), 'MB'),
        'ok_rate': metric((attempted - failed) / attempted, 'ratio'),
    }
    notes = {'verify_runs': len(runs), 'latency_samples': len(runs),
             'setup_samples': len(setups), 'stdout_identical': len(digests) == 1,
             'recorded_answers': recorded is not None, 'clock': runs[0]['clock']}
    return correct, attempted, failed, metrics, notes


def session_args(workload, seed, size, extra):
    return ['session', workload, '--seed', str(seed), '--size', size] + extra


def measure_session(workload, seed, seconds, size, deadline):
    before = (SETUP_SAMPLES[workload] - 1) // 2
    setups = setup_samples(workload, seed, size, before, deadline)
    rep = run_worker(session_args(workload, seed, size, ['--seconds', str(seconds)]),
                     deadline)
    setups.append(rep['setup_s'])
    setups += setup_samples(workload, seed, size, SETUP_SAMPLES[workload] - 1 - before,
                            deadline)
    metrics = {
        'setup_s': metric(statistics.median(setups), 's'),
        'wall_s': metric(rep['wall_s'], 's'),
        'ops_per_s': metric(rep['ops_per_s'], '1/s'),
        'latency_p50_ms': metric(rep['latency_p50_ms'], 'ms'),
        'latency_p90_ms': metric(rep['latency_p90_ms'], 'ms'),
        'peak_rss_mb': metric(rep['peak_rss_mb'], 'MB'),
        'ok_rate': metric((rep['attempted'] - rep['failed']) / rep['attempted'], 'ratio'),
    }
    notes = {key: rep[key] for key in ('passes', 'queries_per_pass', 'latency_samples',
                                       'checked', 'recorded_answers', 'failures',
                                       'clock')}
    notes['setup_samples'] = len(setups)
    return rep['failed'] == 0, rep['attempted'], rep['failed'], metrics, notes


##########################
# per-layer, traced run  #
##########################

def layer_metrics(trace, untraced_wall, overhead):
    """Per-layer metrics from a worker's trace totals."""
    t = trace
    fn_self, fn_calls, fn_terms = t['fn_self_s'], t['fn_calls'], t['fn_terms_out']
    out = {}
    for layer, s in t['layer_self_s'].items():
        out[f'{layer}.self_s'] = metric(s, 's')
        out[f'{layer}.calls'] = metric(t['layer_calls'][layer], 'count')
    for name in ('convert', 'multiply', 'lr_coefficients', 'dual_apply',
                 'hall_pairing', 'coproduct', 'antipode'):
        out[f'symfunc.{name}.self_s'] = metric(fn_self[f'symfunc.{name}'], 's')
    out['symfunc.terms_out'] = metric(t['layer_terms_out']['symfunc'], 'count')
    out['symfunc.oracle.self_s'] = metric(
        fn_self['symfunc.monomial_expand'] + fn_self['symfunc.poly_mult'], 's')
    out['heisenberg.fock_apply.self_s'] = metric(fn_self['heisenberg.fock_apply'], 's')
    out['heisenberg.heis_normalize.self_s'] = metric(fn_self['heisenberg.heis_normalize'], 's')
    out['heisenberg.heis_normalize.terms_out'] = metric(
        fn_terms['heisenberg.heis_normalize'], 'count')
    for name in ('diagram_to_map', 'mackey_check', 'verify_local_relation'):
        out[f'bimodel.{name}.self_s'] = metric(fn_self[f'bimodel.{name}'], 's')
    out['bimodel.diagram_to_map.calls'] = metric(fn_calls['bimodel.diagram_to_map'], 'count')
    out['bimodel.diagram_to_map.matrix_cells'] = metric(t['map_cells'], 'count')
    map_calls = fn_calls['bimodel.diagram_to_map']
    out['bimodel.diagram_to_map.realized_ratio'] = metric(
        t['map_realized'] / map_calls if map_calls else 0.0, 'ratio')
    out['bimodel.diagram_to_map.peak_alloc_mb'] = metric(t['peak_alloc_mb'], 'MB')
    out['diagcat.simplify.self_s'] = metric(fn_self['diagcat.simplify'], 's')
    out['diagcat.simplify.terms_out'] = metric(fn_terms['diagcat.simplify'], 'count')
    out['harness.self_s'] = metric(t['harness_self_s'], 's')
    out['trace.wall_s'] = metric(t['wall_s'], 's')
    out['trace.untraced_wall_s'] = metric(untraced_wall, 's')
    out['trace.overhead_ratio'] = metric(overhead, 'ratio')
    return out


def trace_verify_all(seed, seconds, size, deadline):
    """An untraced and a traced verify-all, both in a worker process."""
    args = ['verify-all', '--seed', str(seed), '--size', size]
    plain = run_worker(args, deadline)
    rep = run_worker(args + ['--trace'], deadline)
    recorded = recorded_answers('verify-all', size, seed)
    same = rep['stdout_sha256'] == plain['stdout_sha256']
    correct = (plain['exit_code'] == 0 and rep['exit_code'] == 0 and same
               and plain['passed_cases'] == VERIFY_CASES == rep['passed_cases']
               and recorded in (None, plain['stdout_sha256']))
    attempted = 2 * VERIFY_CASES
    failed = attempted - plain['passed_cases'] - rep['passed_cases']
    notes = {'spans_file': rep['trace']['spans_file'],
             'spans_kept': rep['trace']['spans_kept'], 'stdout_identical': same,
             'recorded_answers': recorded is not None}
    metrics = layer_metrics(rep['trace'], plain['wall_s'], rep['wall_s'] / plain['wall_s'])
    return correct, attempted, failed, metrics, notes


def trace_session(workload, seed, seconds, size, deadline):
    plain = run_worker(session_args(workload, seed, size, ['--seconds', str(seconds)]),
                       deadline)
    rep = run_worker(session_args(workload, seed, size,
                                  ['--passes', str(plain['passes']), '--trace']), deadline)
    attempted = plain['attempted'] + rep['attempted']
    failed = plain['failed'] + rep['failed']
    notes = {'passes': rep['passes'], 'spans_file': rep['trace']['spans_file'],
             'spans_kept': rep['trace']['spans_kept'], 'failures': rep['failures']}
    # the traced and the untraced wall_s are the same statistic of the same passes
    metrics = layer_metrics(rep['trace'], plain['timed_s'], rep['wall_s'] / plain['wall_s'])
    return failed == 0, attempted, failed, metrics, notes


###########
# main    #
###########

def source_digest():
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, 'src', 'symcat')
    for name in sorted(os.listdir(src)):
        if name.endswith('.py'):
            h.update(name.encode())
            with open(os.path.join(src, name), 'rb') as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, '.git')):
        return None  # not a clone: do not let git search the parent directories
    try:
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open('/proc/cpuinfo') as f:
            for line in f:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, notes):
    return {
        'workload': args.workload, 'seed': args.seed, 'run_seconds': args.seconds,
        'trace': args.trace, 'size': args.size, 'nproc': os.cpu_count(),
        'cpu_model': cpu_model(), 'python': platform.python_version(),
        'git_commit': git_commit(), 'source_sha256': source_digest(),
        'address_space_limit_mb': ADDRESS_SPACE_LIMIT // 2 ** 20, **notes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', choices=WORKLOADS, required=True)
    parser.add_argument('--seed', type=int, default=DEFAULT_SEED)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--size', choices=('full', 'tiny'), default='full',
                        help='tiny: the same paths at toy bounds, for the smoke test')
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, 'src', 'symcat', 'cli.py')):
        print('no program to measure: src/symcat is missing', file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.workload == 'verify-all':
        run = trace_verify_all if args.trace else measure_verify_all
    else:
        run = functools.partial(trace_session if args.trace else measure_session,
                                args.workload)
    try:
        correct, attempted, failed, metrics, notes = run(
            args.seed, args.seconds, args.size, deadline)
    except ChildFailed as exc:
        correct, attempted, failed, metrics, notes = False, 1, 1, {}, {'error': str(exc)}
    record = provenance(args, notes)
    out_dir = os.path.join(BENCH_DIR, 'out')
    os.makedirs(out_dir, exist_ok=True)
    result = {'correct': correct, 'attempted': attempted, 'failed': failed,
              'metrics': metrics}
    name = f'result-{args.workload}-seed{args.seed}-trace{args.trace}.json'
    with open(os.path.join(out_dir, name), 'w') as f:
        json.dump({'provenance': record, **result}, f, indent=1)
    print(json.dumps({'provenance': record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
