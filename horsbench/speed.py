"""Machine speed over a run, to scale measured times to a fixed speed.

The benchmark shares a virtual machine whose speed drifts by tens of
percent over tens of seconds, so two runs of the same code a minute apart
can differ by 25 % in every time they measure.  A run therefore times a
fixed reference computation (`reference`, pure Python with the dict, set
and tuple traffic of the program) every `INTERVAL_S` of CPU time, from a
SIGVTALRM handler that also fires inside long program calls.  A measured
time is scaled by the speed of the samples around it:

    scaled = measured * NOMINAL_S / (reference time near the measurement)

A scaled time is what the measurement would have taken on a machine that
runs the reference in `NOMINAL_S`.  Program changes move it; machine drift
moves the reference with the program and cancels.  The time a sample takes
inside a timed region is subtracted from that region.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.2  # CPU seconds between samples inside a pass
NOMINAL_S = 0.01  # the reference's time at nominal speed
SMOOTH = 3  # samples per local speed estimate (a running median)

# The reference reads a dict of 30,000 int keys (about 4 MB with its
# objects) at a cache-defeating stride, builds small frozensets, and takes
# backward closures in a fixed random graph of 1,500 nodes: the hashing,
# allocation and pointer chasing the program does.  A CPU-bound loop over a
# small table reacted about 1.4 times as strongly to drift as the program's
# operations did; a mix of this kind (tried with a 60,000-key table) reacted
# about as strongly, at slopes of 0.8 to 1.2 over three minutes of
# alternating samples.
_TABLE = {(i * 7919) % 1000003: i for i in range(30000)}
_PROBES = list(_TABLE)[::3]
_rng = random.Random(5)
_SUCC = [[_rng.randrange(1500) for _ in range(_rng.randint(1, 3))]
         for _ in range(1500)]
_PRED: list[list[int]] = [[] for _ in range(1500)]
for _v, _ws in enumerate(_SUCC):
    for _w in _ws:
        _PRED[_w].append(_v)


def reference() -> int:
    """Fixed work of about NOMINAL_S.  Its allocations are transient, so it
    leaves the garbage collector's counts as it found them."""
    acc = 0
    for k in _PROBES:
        acc += _TABLE[k] + len(frozenset((k & 15, k & 3)))
    for start in range(0, 1500, 300):
        seen = set(range(start, start + 30))
        todo = list(seen)
        while todo:
            for v in _PRED[todo.pop()]:
                if v not in seen and (v & 1 or all(
                        x in seen for x in _SUCC[v])):
                    seen.add(v)
                    todo.append(v)
        acc += len(seen)
    return acc


class Speed:
    """Samples (midpoint, duration) of a reference in time order; the
    reference takes `nominal` seconds at nominal speed."""

    def __init__(self, reference=reference, nominal: float = NOMINAL_S):
        self.reference = reference
        self.nominal = nominal
        self.mids: list[float] = []
        self.durations: list[float] = []
        self.stolen = 0.0  # total time spent sampling
        self._factors: list[float] | None = None

    def sample(self) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.reference()
            t1 = perf_counter()
            self.mids.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)
            self._factors = None
        finally:
            if enabled:
                gc.enable()
            self.stolen += perf_counter() - start

    def _on_signal(self, signum, frame) -> None:
        try:
            self.sample()
        except RecursionError:  # interrupted near the recursion limit
            pass

    def start(self) -> None:
        """Sample every INTERVAL_S of CPU time until `stop`."""
        signal.signal(signal.SIGVTALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def timed(self, fn, *args):
        """(result, (start, end, seconds)) of one call; the seconds exclude
        samples taken during it.  A raise passes through untimed."""
        stolen = self.stolen
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        return result, (t0, t1, t1 - t0 - (self.stolen - stolen))

    def factor(self, t0: float, t1: float) -> float:
        """The nominal over the reference time during [t0, t1]: the mean of
        the local estimates inside it, or the nearest one for a short span."""
        if self._factors is None:
            n = len(self.durations)
            width = min(SMOOTH, n)
            self._factors = []
            for k in range(n):
                lo = min(max(0, k - width // 2), n - width)
                self._factors.append(self.nominal / statistics.median(
                    self.durations[lo:lo + width]))
        i = bisect.bisect_left(self.mids, t0)
        j = bisect.bisect_right(self.mids, t1)
        if j - i >= SMOOTH:
            return statistics.fmean(self._factors[i:j])
        k = bisect.bisect_left(self.mids, (t0 + t1) / 2)
        if k == len(self.mids) or (
                k > 0 and (t0 + t1) / 2 - self.mids[k - 1]
                < self.mids[k] - (t0 + t1) / 2):
            k -= 1
        return self._factors[k]

    def scale(self, span: tuple[float, float, float]) -> float:
        t0, t1, seconds = span
        return seconds * self.factor(t0, t1)
