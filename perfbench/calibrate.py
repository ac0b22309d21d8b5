"""Machine-speed calibration.

The shared 2-core hosts this benchmark was defined on change speed by 20-50%
within seconds, and process CPU time shows the same swings, so raw timings
of one workload spread too far from run to run.  While work is measured, a
timer signal runs a small fixed pure-Python kernel every PERIOD_S in the
measuring process, and each timing is reported in reference seconds:

    reference seconds = (measured seconds - time spent in the kernel)
                        * REF_KERNEL_S / median kernel time around the work

The kernel is the benchmark's own code, so a change to chordlab moves the
measured time and not the kernel's.  Raw seconds are printed in the
summary lines beside the reference ones.  The kernel is iterative, so a
sample taken while the program is deep in recursion adds only one frame.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# median kernel time on the machine the benchmark was defined on
REF_KERNEL_S = 0.00055
PERIOD_S = 0.025
# samples this close to a short operation stand in for samples inside it
WINDOW_S = 0.25


def _matchings(points: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    if not points:
        return [()]
    a = points[0]
    return [((a, b),) + rest for i, b in enumerate(points[1:], 1)
            for rest in _matchings(points[1:i] + points[i + 1:])]


_KERNEL_INPUT = _matchings(tuple(range(1, 9)))[::2]  # 53 diagrams, built at import


def kernel() -> int:
    """Interpreter-bound work like chordlab's: crossing masks and a
    connectivity test on bit masks, then renumbering, sorting and text
    formatting, for half the matchings of 1..8.  The mix of integer work and
    allocation tracks the host's speed changes better than either alone."""
    connected = 0
    texts = []
    for pairs in _KERNEL_INPUT:
        n = len(pairs)
        adj = [0] * n
        for i in range(n):
            yi = pairs[i][1]
            for j in range(i + 1, n):
                xj, yj = pairs[j]
                if xj < yi < yj:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        seen = frontier = 1
        while frontier:
            nxt = 0
            for i in range(n):
                if frontier >> i & 1:
                    nxt |= adj[i]
            frontier = nxt & ~seen
            seen |= frontier
        connected += seen == (1 << n) - 1
        points = sorted(p for pair in pairs for p in pair)
        rank = {p: r for r, p in enumerate(points)}
        renumbered = sorted((rank[a], rank[b]) for a, b in pairs)
        texts.append("".join("(%d,%d)" % ab for ab in renumbered))
    return connected + len(texts)


class Sampler:
    """Kernel samples taken on a timer while measured work runs."""

    def __init__(self):
        self.starts: list[float] = []  # busy intervals, both kernel runs
        self.ends: list[float] = []
        self.kernels: list[float] = []  # duration of the warm run

    def sample(self, *_) -> None:
        # the first run warms the caches that the measured work has just
        # used, so the second run's time depends on the machine's speed and
        # not on how much cache the program under test touches
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.kernels.append(t2 - t1)

    def __enter__(self) -> "Sampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in the kernel."""
        lo = bisect_left(self.ends, t0)
        hi = bisect_right(self.starts, t1)
        return sum(max(0.0, min(e, t1) - max(s, t0))
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def times(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw and reference seconds of work that ran from t0 to t1."""
        raw = t1 - t0 - self.busy(t0, t1)
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        if lo >= hi:  # no sample near: use the nearest one
            lo = min(max(0, bisect_left(self.starts, t0) - 1), len(self.starts) - 1)
            hi = lo + 1
        return raw, raw * REF_KERNEL_S / statistics.median(self.kernels[lo:hi])
