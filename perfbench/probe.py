"""Host-speed probe: scales measured times to a fixed reference speed.

The shared 2-core box this benchmark was built on runs the same Python code
up to 1.8x slower for seconds or minutes at a time, when other tenants load
the host. Those swings move every wall and CPU time, and no amount of
repetition inside one run averages them out. So while a timed call runs, a
``SIGALRM`` handler times a small fixed pure-Python kernel every
``INTERVAL_S``. A call's time is scaled by ``nominal / median kernel time``
over the probes taken during the call, after the probes' own time is
subtracted.

The factor must follow the host and not the program being measured, so the
kernel is kept apart from the program's state:

- it allocates no container the garbage collector tracks, and the collector
  is off while it runs, so no collection the program has made due (whose
  cost grows with the program's live heap) lands inside a probe;
- it runs once untimed before the timed pass, so it is timed on warm caches
  whatever the program has just evicted;
- the factor is the median over the probes, so a few slow ticks do not
  move it.

The kernel mixes the interpreter work the library does: dict updates, list
indexing, Bernoulli flips and a union-find over a fixed 34-vertex graph. It
calls nothing in the library. ``test_perfbench`` checks that it allocates
no tracked object, and, within this host's noise, that the factor stays put
with a large live heap held and with a cold cache.

The handler runs between bytecodes of the main thread, so it needs no second
thread or process. It is installed only inside a ``with`` block.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.01
MIN_PROBES = 5

_VERTICES = 34
_EDGE_U = [(i * 7) % _VERTICES for i in range(78)]
_EDGE_V = [(i * 13 + 5) % _VERTICES for i in range(78)]
_PROBS = [0.1 + 0.08 * (i % 10) for i in range(78)]
_IDENTITY = tuple(range(_VERTICES))
_PARENT = list(_IDENTITY)
_COUNTS = dict.fromkeys(range(512), 0)
_RANDOM = random.Random(1).random  # bound once: a bound method is a tracked object


def _kernel(reps: int = 4) -> int:
    """Fixed interpreter work that allocates only untracked ints and floats."""
    rnd, parent, counts = _RANDOM, _PARENT, _COUNTS
    acc = 0
    for _ in range(reps):
        parent[:] = _IDENTITY  # in place: no new list
        for i in range(78):
            if rnd() < _PROBS[i]:
                u, v = _EDGE_U[i], _EDGE_V[i]
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u != v:
                    parent[v] = u
                key = (u * 31 + v) & 511
                counts[key] = counts.get(key, 0) + 1
        acc += parent[0]
    return acc


# Median time of the kernel's timed pass inside the handler on the reference
# box (2-core x86-64 VM, Python 3.11) when the host was quiet. Any constant
# works for comparisons between commits; this one keeps scaled times close to
# quiet-host wall seconds.
NOMINAL_S = 100e-6


def speed_factor(durations: list[float]) -> float:
    """Host slowdown against the reference box: median timed pass ÷ nominal."""
    return statistics.median(durations) / NOMINAL_S


class SpeedProbe:
    """Samples host speed while active; scales intervals measured meanwhile."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []  # the timed pass
        self.costs: list[float] = []  # the whole handler
        self._old = None

    def _tick(self, signum, frame) -> None:
        t_in = perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _kernel()  # warms the caches the timed pass uses
            t0 = perf_counter()
            _kernel()
            t1 = perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(t_in)
        self.durations.append(t1 - t0)
        self.costs.append(perf_counter() - t_in)

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def window(self, a: float, b: float) -> tuple[float, float]:
        """(speed factor, probe seconds) for the interval [a, b].

        The factor is ``speed_factor`` of the probes inside the interval.
        An interval with fewer than ``MIN_PROBES`` inside uses the ones
        nearest its midpoint. Probe seconds are the handlers' whole time
        inside the interval.
        """
        i, j = bisect_left(self.starts, a), bisect_right(self.starts, b)
        inside = self.durations[i:j]
        sample = inside
        if len(inside) < MIN_PROBES:
            mid = (a + b) / 2
            nearest = sorted(range(len(self.starts)), key=lambda k: abs(self.starts[k] - mid))
            sample = [self.durations[k] for k in nearest[:MIN_PROBES]]
        if not sample:
            return 1.0, 0.0
        return speed_factor(sample), sum(self.costs[i:j])
