"""Machine-speed probe: a fixed pure-Python kernel sampled beside every
timed operation.

The processor's speed drifts by up to a factor of two within seconds on
small shared VMs, and process CPU time drifts with it.  So each operation
is timed together with the kernel: a few probes right before and after
it, and one every `PERIOD_S` while it runs, fired by an interval timer.
The scaled time of the operation is its wall time, less the probes' own
time, multiplied by REF_PROBE_S / (mean probe time).  That is its
duration at a fixed reference speed.  The kernel calls nothing in the
program.
"""

from __future__ import annotations

import signal
import time

REF_PROBE_S = 200e-6  # the reference speed: one probe in 200 us
PERIOD_S = 0.006
EDGE_PROBES = 3

_clock = time.perf_counter


class _GF7:
    def mul(self, a, b):
        return a * b % 7

    def sub(self, a, b):
        return (a - b) % 7


_F = _GF7()


def kernel() -> int:
    """Reduce a fixed 8 x 10 matrix over GF(7) in place, then insert eight
    fixed vectors one by one into an interned reduced basis, with field
    operations as method calls: the mix of the program's eliminations."""
    rows = [[(i * 5 + j * 3 + i * j) % 7 for j in range(10)] for i in range(8)]
    r = 0
    for c in range(10):
        piv = next((i for i in range(r, 8) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], 5, 7)
        lead = rows[r] = [x * inv % 7 for x in rows[r]]
        for i in range(8):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % 7 for x, y in zip(rows[i], lead)]
        r += 1
    seen = {}
    basis = ()
    for j in range(8):
        v = [(i * 5 + j * 3 + 11 + i * j) % 7 for i in range(8)]
        for row in basis:
            c = v[next(i for i, x in enumerate(row) if x)]
            if c:
                v = [_F.sub(x, _F.mul(c, y)) for x, y in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        inv = pow(v[p], 5, 7)
        basis = tuple(sorted(basis + (tuple(_F.mul(inv, x) for x in v),)))
        seen[basis] = len(seen)
    return r + len(seen)


class Probe:
    """Times regions of work together with the speed kernel.

    `spent` is the running total of time spent inside probes, so that a
    tracer can subtract it from the spans a probe interrupted."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._busy = False

    def _probe(self, *_):
        if self._busy:  # a tick that lands inside a probe is dropped
            return
        self._busy = True
        t = _clock()
        kernel()
        d = _clock() - t
        self.samples.append(d)
        self.spent += d
        self._busy = False

    def measure(self, fn):
        """Run fn(); return (its result, wall seconds, scaled seconds)."""
        self.samples = []
        for _ in range(EDGE_PROBES):
            self._probe()
        spent0 = self.spent
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = _clock()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = _clock() - t0
            signal.signal(signal.SIGALRM, previous)
        wall -= self.spent - spent0
        for _ in range(EDGE_PROBES):
            self._probe()
        return result, wall, wall * self.scale()

    def scale(self) -> float:
        """REF_PROBE_S over the mean probe time of the last measure()."""
        return REF_PROBE_S * len(self.samples) / sum(self.samples)
