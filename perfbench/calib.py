"""Reference loop: fixed work timed beside the program to factor out the
machine's speed.

The benchmark runs on shared machines.  Other tenants slow every process
on it, on the two-core box this was written on by 1.4x to 1.9x, changing
from second to second and for minutes at a time, without showing as steal
time.  So raw job times move with them, and neither the fastest of a
run's repeats nor readings taken between jobs remove that.  This loop never
changes with the program, so its time measures the machine alone.  A
``Sampler`` runs one short pass of it every INTERVAL_S while a job runs;
dividing the job's time by the mean pass time over NOMINAL_S gives its
calibrated time: the seconds it would take with the loop at NOMINAL_S.

The loop mixes the kinds of work the program does: interpreted float
arithmetic (the residual-mode RK4, CSV formatting), NumPy calls on short
vectors (the coupled RK4 at state dimension 22) and a 200 x 200 mat-vec
(the coupled RK4 at dimension 200).  Sampled every 50 ms in a trial on
that box, the mean pass time correlated with job times at 0.93 to 0.98.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025      # wall time between passes while sampling
NOMINAL_S = 0.001       # one pass on the quiet box, rounded
READING_PASSES = 50     # passes in one reading outside a sampler


def _matrices():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((22, 22)) * 0.1,
            rng.standard_normal((200, 200)) * 0.005)


def loop_seconds(small, wide):
    """Time of one pass of the reference loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += (i * 0.5) * 1.0001 - acc * 1e-6
    x = np.ones(22)
    for _ in range(130):
        x = small @ x + 0.5 * x
    y = np.ones(200)
    for _ in range(45):
        y = wide @ y + 0.5 * y
    if not (np.isfinite(acc) and np.all(np.isfinite(x))
            and np.all(np.isfinite(y))):
        raise ArithmeticError("reference loop diverged")
    return time.perf_counter() - t0


class Sampler:
    """Runs a pass of the reference loop every INTERVAL_S of wall time
    while ``timing`` is set, from a SIGALRM handler in the main thread.

    The caller sets ``timing`` around the work it times, so the passes
    measure the machine during that work and nowhere else.  Python runs
    the handler between bytecodes, so a pass lands inside whatever the
    program is doing; ``spent`` is the total time of all passes, for the
    caller to take out of its timings.
    """

    def __init__(self):
        self._matrices = _matrices()
        self.samples = []
        self.spent = 0.0
        self.timing = False
        self._previous = None

    def sample(self):
        """Run and record one pass."""
        t = loop_seconds(*self._matrices)
        self.samples.append(t)
        self.spent += t

    def _alarm(self, *_):
        if self.timing:
            self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, first):
        """Mean pass time of the samples from index ``first`` on, over
        NOMINAL_S."""
        return statistics.fmean(self.samples[first:]) / NOMINAL_S


def reading():
    """Slowdown now, outside a sampler: the mean of READING_PASSES passes
    over NOMINAL_S."""
    matrices = _matrices()
    times = [loop_seconds(*matrices) for _ in range(READING_PASSES)]
    return statistics.fmean(times) / NOMINAL_S
