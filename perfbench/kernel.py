"""Reference kernel: a fixed, stdlib-only yardstick for the host's speed.

The host this benchmark was tuned on switches between two or more
speeds, from several times a second to once in several seconds, and time
stolen by the host counts as process time, so neither wall time nor CPU
time of one op repeats.  The kernel does the same kind of work as the
program (BFS over adjacency sets with a deque, dict and set building) on
a fixed graph, with the cyclic GC paused so the program's heap cannot
change its speed.  `SpeedSampler` times it at a fixed interval while the
program runs; dividing gives an op's time at the kernel's nominal speed:

    scaled = raw * NOMINAL_S / mean(kernel times sampled around the op)

NOMINAL_S is a constant of the benchmark, so scaled times keep their
units.  It is close to the kernel's median time on the machine the
README's reference figures come from.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from collections import deque
from random import Random
from time import perf_counter

NOMINAL_S = 0.0070
# Small on purpose: a kernel over 3,000 nodes, with sets past 100 KB,
# changed its time while the program's ops kept theirs.
_NODES = 400
_SOURCES = tuple(range(0, _NODES, 25))


def build_graph() -> tuple[frozenset[int], ...]:
    """The kernel's fixed input: a sparse random graph, same every time."""
    rng = Random(20180405)
    adj = [set() for _ in range(_NODES)]
    for v in range(_NODES):
        for _ in range(3):
            w = rng.randrange(_NODES)
            if w != v:
                adj[v].add(w)
                adj[w].add(v)
    return tuple(frozenset(a) for a in adj)


def _work(graph) -> int:
    total = 0
    for src in _SOURCES:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            dv = dist[v] + 1
            for w in graph[v]:
                if w not in dist:
                    dist[w] = dv
                    queue.append(w)
        rings: dict[int, set[int]] = {}
        for v, d in dist.items():
            rings.setdefault(d, set()).add(v)
        inner: set[int] = set()
        for d in sorted(rings):
            inner |= rings[d]
            total += len(frozenset(inner) & graph[src])
    return total


def kernel_seconds(graph) -> float:
    """Time of one kernel pass, the better of two, with the GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            _work(graph)
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()


class SpeedSampler:
    """Times the kernel every `interval` seconds, also in the middle of an op.

    A SIGALRM handler runs the kernel between two bytecodes of whatever is
    running, so an op that lasts seconds is sampled all through instead of
    only at its ends.  `on_sample(seconds)` is told how long each sample
    took (a tracer charges it to the span it interrupted).
    """

    def __init__(self, graph, interval: float, on_sample=None):
        self.graph = graph
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernels: list[float] = []
        self.on_sample = on_sample

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        k = kernel_seconds(self.graph)
        t1 = perf_counter()
        self.ends.append(t1)
        self.starts.append(t0)
        self.kernels.append(k)
        if self.on_sample is not None:
            self.on_sample(t1 - t0)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def measured(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw time of [t0, t1] without the samples in it, and its scale.

        The scale is NOMINAL_S over the mean kernel time of the samples
        inside the interval and the nearest one on each side of it.
        """
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        raw = t1 - t0 - sum(self.ends[j] - self.starts[j] for j in range(lo, hi))
        near = self.kernels[max(lo - 1, 0):hi + 1]
        return raw, NOMINAL_S * len(near) / sum(near)
