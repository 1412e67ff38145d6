"""A clock that runs at the speed of a reference workload, not of the wall.

On a shared host the same Python code runs 20 to 50 % slower while other
tenants load the same physical cores, in spells that last from a second to
about a minute; a whole benchmark run can fall inside one.  CPU time slows
just as much (the slowdown is contention, not lost time slices), so neither
wall nor CPU time of a run can be compared with another run's.

`RefClock` measures the host's current speed as it goes: every TICK_S of
wall time a SIGALRM handler interrupts the program, between two bytecodes,
and times a fixed piece of pure-Python work (`reference_work`: a product
of two sparse polynomials with Fraction coefficients in a dict keyed by
exponent tuples, like the program's own inner loops).  The program's time in each interval between two ticks is
scaled by REF_NOMINAL_S over the median of the last few reference times,
and the handler's own time is left out.  `now()` therefore reads seconds
at a fixed reference speed: the speed at which `reference_work` takes
REF_NOMINAL_S.  A program that does the same work reads about the same
time whether the host is busy or not; a program that does less work
reads less.
"""

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

TICK_S = 0.1
# reference_work's time on an unloaded 2-vCPU Xeon VM (Python 3.11), so
# that the clock reads roughly seconds of that machine
REF_NOMINAL_S = 0.0025
WINDOW = 5          # reference samples whose median sets the current speed
CALIBRATION = 5     # reference samples taken when the clock starts

# two fixed sparse polynomials in three variables, as (exponents, coefficient)
# terms with Fraction and int coefficients
_F = [((i % 5, i % 3, i % 4), Fraction(i % 7 - 3, i % 4 + 1)) for i in range(30)]
_G = [((i % 4, i % 6, i % 2), i % 9 - 4) for i in range(30)]


def reference_work():
    """A fixed piece of work shaped like symcat's inner loops: the product
    of _F and _G, collected in a dict keyed by exponent tuples."""
    out = {}
    for ea, ca in _F:
        for eb, cb in _G:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _timed_reference():
    enabled = gc.isenabled()
    gc.disable()  # the program's heap must not slow the reference
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Reference-speed seconds since start(); see the module docstring."""

    def __init__(self):
        self.samples = []           # every reference time, in order
        self._recent = deque(maxlen=WINDOW)
        self._scale = 1.0           # reference seconds per wall second now
        self._acc = 0.0             # reference seconds up to _mark
        self._mark = 0.0            # wall time at which _acc was read
        self.handler_s = 0.0        # wall time spent in the handler

    def start(self):
        for _ in range(CALIBRATION):
            self._sample()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self):
        ref = _timed_reference()
        self.samples.append(ref)
        self._recent.append(ref)
        self._scale = REF_NOMINAL_S / statistics.median(self._recent)

    def _tick(self, _signum, _frame):
        entered = time.perf_counter()
        # the interval since the last tick runs at the speed measured before it
        self._acc += (entered - self._mark) * self._scale
        self._sample()
        self._mark = time.perf_counter()
        self.handler_s += self._mark - entered
        # one-shot timer, re-armed here, so the handler never nests
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def now(self):
        while True:
            mark = self._mark
            value = self._acc + (time.perf_counter() - mark) * self._scale
            if mark == self._mark:  # no tick came in between the reads
                return value

    def speed_note(self):
        """Provenance: how the reference ran, in ms."""
        s = sorted(self.samples)
        return {'ref_samples': len(s), 'ref_median_ms': statistics.median(s) * 1e3,
                'ref_min_ms': s[0] * 1e3, 'handler_s': self.handler_s}
