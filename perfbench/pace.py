"""CPU-speed sampling, so timings can be rescaled to a fixed reference speed.

The benchmark's host shares its cores: the speed of one core drifts by
±25% within seconds and its level moves between minutes, and the two cores
drift independently.  A wall time measured on it mixes the program's cost
with the host's mood.  `Pace` samples the speed of the core the process is
running on, from inside the process, while the work runs: every `INTERVAL_S`
of wall time a `SIGALRM` handler times a fixed pure-Python reference loop
in thread CPU time.  `scaled(a, b)` then integrates the wall time between
two marks, each interval weighted by how fast the reference loop ran around
it, and reports what the span would have taken on a core where the loop
takes `REFERENCE_NS`.  When the core speed is steady the result is the wall
time times a constant, so a faster program still reads proportionally
faster.

Python runs signal handlers only between bytecodes, so a long C call
(a huge `str(int)`, a numpy sieve) is one long interval sampled at its end.
Each interval therefore uses the median of the samples around it, which
keeps one noisy sample from deciding a long interval.  The handler costs
about 1% of the run, the same share in every run.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02  # wall time between samples
REFERENCE_LOOPS = 1500  # iterations of the timed reference loop
WARM_LOOPS = 200  # untimed iterations first, so the timed ones start warm
REFERENCE_NS = 150_000  # the reference loop's thread CPU time at the reference speed
WINDOW = 2  # an interval uses the median of the samples within this many of its own


def _loop(count: int) -> int:
    total = 0
    for i in range(count):
        total += i * i % 7
    return total


def reference_ns() -> int:
    """Thread CPU nanoseconds of one timed reference loop."""
    _loop(WARM_LOOPS)
    start = time.thread_time_ns()
    _loop(REFERENCE_LOOPS)
    return time.thread_time_ns() - start


class Pace:
    """Samples core speed on a wall-clock timer between `start` and `stop`."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, int]] = []  # (perf_counter at sample end, reference ns)
        self._previous = None
        self._running = False

    def _sample(self, *_) -> float:
        cost = reference_ns()
        now = time.perf_counter()
        self.samples.append((now, cost))
        return now

    def start(self) -> float:
        """Take the first sample and arm the timer; returns the start mark."""
        if self._running:
            raise RuntimeError("pace sampler is already running")
        self._running = True
        start = time.perf_counter()
        self.samples = [(start, reference_ns())]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return start

    def mark(self) -> float:
        """Sample now and return the time, to end a span passed to `scaled`."""
        return self._sample()

    def stop(self) -> None:
        """Disarm the timer and put the previous SIGALRM handler back."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous if self._previous is not None else signal.SIG_DFL)
        self._running = False

    def scaled(self, begin: float, end: float) -> float:
        """Seconds from `begin` to `end` at the reference speed.

        `begin` and `end` should be marks (the start mark or one from
        `mark`), so that an interval ends exactly on each.
        """
        samples = sorted(self.samples)  # a handler may land between a mark's two steps
        costs = [cost for _, cost in samples]
        total = 0.0
        for i in range(1, len(samples)):
            lo, hi = max(samples[i - 1][0], begin), min(samples[i][0], end)
            if hi > lo:
                around = costs[max(0, i - WINDOW) : i + WINDOW + 1]
                total += (hi - lo) * REFERENCE_NS / statistics.median(around)
        return total

    def speed(self) -> float:
        """Median core speed over every sample, relative to the reference speed."""
        return REFERENCE_NS / statistics.median(cost for _, cost in self.samples)
