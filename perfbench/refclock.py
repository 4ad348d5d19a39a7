"""A reference kernel timed alongside the workload, for host-independent cost.

On a shared host the speed of one core swings with what runs on its
neighbours: a busy loop on the other core of a 2-core VM made a short
wireline simulation up to twice as slow, and stretches of minutes run
slow without it.  Plain wall time then measures the host as much as the
program.  So a timed pass is also measured against a fixed pure-Python
kernel that runs while the pass runs: a one-shot interval timer fires
after every ``EVERY_S`` seconds of workload time, and its signal handler
times one call of ``kernel``.  The handler runs in the main thread between
bytecodes, so the kernel sees the same core, and the same neighbours, as
the workload around it.  A long call into C (an LP solve) holds the
handler back until it returns, so such passes get fewer samples.  A
run's cost is the median time of its passes, less the handler's, over
the kernel's mean time in all of them: how many kernel calls a pass is
worth.  Pooling the samples of a run keeps the kernel's own noise small.

The kernel is an event loop of the program's kind (a heap of timed
events, dict counters, random draws, small tuples, method calls) and
imports nothing from aggnet, so no change to the program moves it.
"""
from __future__ import annotations

import heapq
import random
import signal
import statistics
from time import perf_counter

EVERY_S = 0.2
KERNEL_EVENTS = 6000


class _Queue:
    def __init__(self):
        self.waiting = {}
        self.served = 0

    def arrive(self, key):
        self.waiting[key] = self.waiting.get(key, 0) + 1

    def serve(self, key):
        left = self.waiting.get(key, 0)
        if left:
            self.waiting[key] = left - 1
            self.served += 1


def kernel():
    """A fixed event simulation; returns the number of services."""
    rng = random.Random(7)
    queue = _Queue()
    heap = []
    for i in range(KERNEL_EVENTS):
        heapq.heappush(heap, (rng.random(), i & 255, i))
        if len(heap) > 64:
            _, key, i = heapq.heappop(heap)
            queue.arrive(key)
            queue.serve((key * 31 + i) & 255)
    return queue.served


SERVED = kernel()


class RefClock:
    """Samples the kernel every EVERY_S seconds while a `with` block runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self):
        t0 = perf_counter()
        served = kernel()
        self.samples.append(perf_counter() - t0)
        if served != SERVED:
            raise RuntimeError(f"reference kernel served {served}, expected {SERVED}")

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def own(self):
        """Seconds the block itself took: its wall time minus the kernel's."""
        return self.wall - self.spent


def cost(own_seconds, samples):
    """Seconds in units of the kernel's mean time over `samples`."""
    return own_seconds / statistics.fmean(samples)
