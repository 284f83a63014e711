"""Host-speed calibration: how fast the machine runs while a unit runs.

On a shared VM the same unit's wall time swings by tens of percent over
seconds to minutes, and CPU time swings with it.  :class:`HostSampler`
interrupts a running unit every :data:`PERIOD` seconds (``SIGALRM``, so the
simulation's schedule is untouched) and times a fixed piece of interpreter
work, :meth:`HostSampler.reference_once`.  The time spent sampling is
excluded from the unit's wall time, and each segment between two samples
is scaled by ``REFERENCE_S`` over the mean of the samples at its ends:
seconds at one fixed host speed.
"""

from __future__ import annotations

import heapq
import random
import signal
from time import perf_counter
from typing import List, Tuple

#: seconds between the end of one sample and the start of the next; with a
#: ~20 ms sample about a tenth of a run is spent sampling.  Sampling once
#: per 2-4 s unit instead left calibrated units 2-4x noisier.
PERIOD = 0.15
#: objects in the reference's linked graph: a few MB, beyond the L2 cache
GRAPH_NODES = 40000


class _Node:
    __slots__ = ("next", "value", "key")

    def __init__(self, key: int):
        self.next = None
        self.value = key * 0.5
        self.key = key

    def step(self, acc: float) -> float:
        return acc + self.value + self.key


class HostSampler:
    """Reference samples taken during one unit at a time.

    Between ``install()`` and ``uninstall()``, ``start()`` takes a sample
    and arms the timer; each alarm appends the time since the previous
    sample ended and a new sample; ``stop()`` does the same once more and
    disarms.  ``paused`` is the total time spent sampling: callers timing a
    region inside the unit subtract its change.
    """

    def __init__(self, period: float = PERIOD):
        self.period = period
        self._graph = [_Node(i) for i in range(GRAPH_NODES)]
        order = list(range(GRAPH_NODES))
        random.Random(0).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            self._graph[a].next = self._graph[b]
        self.active = False
        self.paused = 0.0
        self.segments: List[float] = []
        self.refs: List[float] = []
        self._mark = 0.0
        self._previous = None

    def reference_once(self) -> float:
        """Wall time of a fixed reference workload shaped like the engine's
        hot loop over a heap of objects: heap pushes and pops, generator
        resumes, dict stores, and a method call on the next object of a
        randomly linked graph (about 20 ms on the machine the README
        names).  A loop over a few cached objects alone slows down more
        than the workloads when the host is contended; walking the graph
        makes the sample miss the cache the way the simulation does."""

        def process():
            total = 0
            while True:
                total += yield total

        start = perf_counter()
        proc = process()
        next(proc)
        heap, slots = [], {}
        node, acc = self._graph[0], 0.0
        for i in range(24000):
            acc = node.step(acc)
            node = node.next
            heapq.heappush(heap, (node.key % 1000, i))
            if len(heap) > 64:
                time, eid = heapq.heappop(heap)
                slots[eid & 255] = proc.send(time)
        return perf_counter() - start

    def install(self) -> None:
        """Take over ``SIGALRM`` (the handler stays idle between units)."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def uninstall(self) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> None:
        now = perf_counter()
        self.segments.append(now - self._mark)
        self.refs.append(self.reference_once())
        self._mark = perf_counter()
        self.paused += self._mark - now

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def start(self) -> None:
        self.segments, self.refs = [], [self.reference_once()]
        self.paused = 0.0
        self._mark = perf_counter()
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def segment(self) -> int:
        """Index of the segment running now (valid while a unit runs)."""
        return len(self.refs)

    def stop(self) -> Tuple[float, float]:
        """``(wall, reference)``: the unit's wall time without sampling, and
        the reference time that scales it like calibrating every segment
        by the samples at its ends."""
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        return sum(self.segments), self.reference(
            [(seg, i) for i, seg in enumerate(self.segments, 1)])

    def reference(self, pieces: List[Tuple[float, int]]) -> float:
        """The reference time for ``(seconds, segment)`` pieces of the last
        unit: calibrating their total by it scales each piece by the mean
        of the two samples around its segment (0.0 for no time)."""
        total = sum(d for d, _ in pieces)
        scaled = sum(d * 2 / (self.refs[i - 1] + self.refs[i]) for d, i in pieces)
        return total / scaled if scaled else 0.0
