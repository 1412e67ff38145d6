"""One benchmark child process: set-up only, a session, or an in-process verify-all.

    python3 perfbench/worker.py setup <workload> --seed N [--size full|tiny]
    python3 perfbench/worker.py session <workload> --seed N --seconds S
            [--passes P] [--trace] [--size full|tiny]
    python3 perfbench/worker.py verify-all --seed N [--trace] [--size full|tiny]
    python3 perfbench/worker.py record

`run.py` starts these with an address-space limit and a timeout; each prints
one JSON report as its last line.  Every time, spans included, is read from
a `refclock.RefClock`: seconds at a fixed reference speed.  `record`
rewrites `answers.json`, the answer digests of the default seed, from the
program as it stands.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, 'src'))

DEFAULT_SEED = 0
ANSWERS = os.path.join(BENCH_DIR, 'answers.json')
OUT_DIR = os.path.join(BENCH_DIR, 'out')
VERIFY_ARGS = {'full': ['--max-degree', '6', '--max-rank', '3'],
               'tiny': ['--max-degree', '2', '--max-rank', '1']}
VERIFY_CASES = 31
# session passes whose answer digests answers.json holds for the default seed
RECORDED_PASSES = 2


def verify_argv(seed, size):
    return ['verify-all', '--json', '--seed', str(seed)] + VERIFY_ARGS[size]


def answer_key(workload, size, seed):
    return f'{workload}/{size}/seed{seed}'


def recorded_answers(workload, size, seed):
    """Recorded digests for this run, or None when the seed has none."""
    with open(ANSWERS) as f:
        return json.load(f).get(answer_key(workload, size, seed))


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending sequence."""
    k = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values) + 0.999999) - 1))
    return sorted_values[k]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload, seed, size, now, tracer=None):
    """Import, input generation and warm-up; returns (seconds, first pass)."""
    start = now()
    import workloads
    if tracer is not None:
        tracer.install()
    qs = workloads.queries(workload, seed, size, 0)
    workloads.warm_up(workload, size)
    return now() - start, qs


def run_passes(workload, seed, size, qs, now, seconds, passes, tracer):
    """The timed phase: passes until `seconds` of wall time (or exactly
    `passes` passes), starting with the pass qs.  Each later pass's queries
    are built before its clock starts, and answers are digested after it
    stops.  Returns the latencies, the pass times, the digests of the first
    RECORDED_PASSES passes and (queries, answers) of the first and last pass."""
    from workloads import call, digest, queries
    latencies = array('d')
    walls, digests, first = [], [], None
    ends = time.perf_counter() + seconds
    while True:
        done = len(walls)
        if done:
            qs = queries(workload, seed, size, done)
        answers = [None] * len(qs)
        if tracer is not None:
            tracer.active = True
        started = now()
        for i, q in enumerate(qs):
            if tracer is not None:
                tracer.query_id = done * len(qs) + i
            t = now()
            answers[i] = call(q)
            latencies.append(now() - t)
        walls.append(now() - started)
        if tracer is not None:
            tracer.active = False
        if done < RECORDED_PASSES:
            digests.append([digest(a) for a in answers])
        if first is None:
            first = (qs, answers)
        if (len(walls) >= passes) if passes else (time.perf_counter() >= ends):
            return latencies, walls, digests, first, (qs, answers)


def start_clock():
    import refclock
    return refclock.RefClock().start()


def session(workload, seed, size, seconds, passes, trace):
    import tracer as tracing
    clock = start_clock()
    now = clock.now
    tracer = tracing.Tracer(now) if trace else None
    setup_s, qs = set_up(workload, seed, size, now, tracer)
    latencies, walls, digests, first, last = run_passes(
        workload, seed, size, qs, now, seconds, passes, tracer)
    clock.stop()
    rss = peak_rss_mb()

    # Failures are (pass, query) pairs.  The identity sample is taken from
    # the first pass (caches cold) and the last one (caches warmest).
    import workloads
    bad, checked = workloads.identity_failures(workload, *first)
    wrong = {(0, i) for i in bad}
    if len(walls) > 1:
        bad, more = workloads.identity_failures(workload, *last)
        wrong |= {(len(walls) - 1, i) for i in bad}
        checked = {k: checked.get(k, 0) + more.get(k, 0) for k in set(checked) | set(more)}
    expected = recorded_answers(workload, size, seed)
    if expected is not None:
        for p, (got, want) in enumerate(zip(digests, expected)):
            if len(got) != len(want):
                wrong |= {(p, i) for i in range(len(got))}
            else:
                wrong |= {(p, i) for i, (g, w) in enumerate(zip(got, want)) if g != w}
    attempted = len(qs) * len(walls)
    # wall_s is the median pass: a fixed amount of work, whatever the
    # number of passes --seconds allows.
    pass_wall = statistics.median(walls)
    latencies = sorted(latencies)
    report = {
        'setup_s': setup_s,
        'wall_s': pass_wall,
        'timed_s': sum(walls),
        'passes': len(walls),
        'queries_per_pass': len(qs),
        'attempted': attempted,
        'failed': len(wrong),
        'ops_per_s': len(qs) * (attempted - len(wrong)) / attempted / pass_wall,
        'latency_p50_ms': percentile(latencies, 0.50) * 1000,
        'latency_p90_ms': percentile(latencies, 0.90) * 1000,
        'latency_samples': len(latencies),
        'peak_rss_mb': rss,
        'checked': checked,
        'recorded_answers': expected is not None,
        'failures': [f'pass {p} query {i}' for p, i in sorted(wrong)[:5]],
        'clock': clock.speed_note(),
    }
    if tracer is not None:
        report['trace'] = tracer.totals(report['timed_s'])
        report['trace']['peak_alloc_mb'] = tracer.replay_peak_alloc_mb()
        report['trace']['spans_file'] = write_spans(tracer, workload, seed)
    return report


def write_spans(tracer, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f'spans-{workload}-seed{seed}.jsonl')
    tracer.write_spans(path)
    return os.path.relpath(path, ROOT)


def verify_all(seed, size, trace):
    """verify-all in this fresh interpreter (caches cold), with every layer
    wrapped if trace.  symcat is imported before the clock starts: that is
    set-up."""
    from symcat import cli
    import tracer as tracing
    clock = start_clock()
    now = clock.now
    tracer = tracing.Tracer(now) if trace else None
    if tracer is not None:
        tracer.install()
        tracer.query_id = 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is not None:
            tracer.active = True
        started = now()
        code = cli.main(verify_argv(seed, size))
        wall = now() - started
        if tracer is not None:
            tracer.active = False
    clock.stop()
    text = out.getvalue()
    report = {
        'exit_code': code,
        'wall_s': wall,
        'peak_rss_mb': peak_rss_mb(),
        'stdout_sha256': hashlib.sha256(text.encode()).hexdigest(),
        'passed_cases': sum(c['status'] == 'pass' for c in json.loads(text)['cases']),
        'clock': clock.speed_note(),
    }
    if tracer is not None:
        report['trace'] = tracer.totals(wall)
        report['trace']['peak_alloc_mb'] = tracer.replay_peak_alloc_mb()
        report['trace']['spans_file'] = write_spans(tracer, 'verify-all', seed)
    return report


def record():
    """Write answers.json: digests of the default seed's answers, both sizes."""
    import workloads
    answers = {}
    for size in ('full', 'tiny'):
        for workload in workloads.SESSIONS:
            workloads.warm_up(workload, size)
            answers[answer_key(workload, size, DEFAULT_SEED)] = [
                [workloads.digest(workloads.call(q))
                 for q in workloads.queries(workload, DEFAULT_SEED, size, p)]
                for p in range(RECORDED_PASSES)]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, 'src'))
        proc = subprocess.run([sys.executable, '-m', 'symcat.cli']
                              + verify_argv(DEFAULT_SEED, size),
                              env=env, cwd=ROOT, capture_output=True, check=True)
        answers[answer_key('verify-all', size, DEFAULT_SEED)] = \
            hashlib.sha256(proc.stdout).hexdigest()
    with open(ANSWERS, 'w') as f:
        json.dump(answers, f, indent=0, sort_keys=True)
        f.write('\n')


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('mode', choices=('setup', 'session', 'verify-all', 'record'))
    parser.add_argument('workload', nargs='?', default='verify-all')
    parser.add_argument('--seed', type=int, default=DEFAULT_SEED)
    parser.add_argument('--size', choices=('full', 'tiny'), default='full')
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--passes', type=int, default=0)
    parser.add_argument('--trace', action='store_true')
    args = parser.parse_args(argv)
    if args.mode == 'record':
        record()
        return
    if args.mode == 'setup':
        clock = start_clock()
        if args.workload == 'verify-all':
            start = clock.now()
            import symcat.cli  # noqa: F401  (the import is what is timed)
            setup_s = clock.now() - start
        else:
            setup_s = set_up(args.workload, args.seed, args.size, clock.now)[0]
        clock.stop()
        report = {'setup_s': setup_s}
    elif args.mode == 'session':
        report = session(args.workload, args.seed, args.size, args.seconds,
                         args.passes, args.trace)
    else:
        report = verify_all(args.seed, args.size, args.trace)
    print(json.dumps(report))


if __name__ == '__main__':
    main()
