"""The pre-optimization event loop, frozen for differential testing.

:class:`ReferenceEnvironment` is a line-for-line copy of the
:class:`~repro.simkernel.core.Environment` as it stood before the engine
fast path (inlined run loop, monomorphic tie-break, tombstoning) landed.
It shares the event/process/store primitives with the optimized engine, so
running the same seeded workload on both and asserting identical event
logs, clocks and ``swallowed_faults`` pins the optimization to the exact
historical semantics — including the contract that a cancelled event is
*observationally* a dead no-op: :meth:`ReferenceEnvironment.cancel` does
nothing, and the event fires into an empty callback list exactly as every
abandoned timer did before cancellation existed.

``tests/test_speed_gates.py`` uses this class as the measured reference
side of its engine speedup gate, so both timings of each ratio come from
the same interpreter on the same machine.

Do not modify this file when optimizing the engine — it is the baseline.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional

from repro.simkernel.errors import FaultError, SimulationError
from repro.simkernel.events import AllOf, AnyOf, Event, NORMAL, Timeout


class ReferenceEnvironment:
    """The seed engine: property round-trips, per-step try/except, virtual
    tie-break on every schedule, no cancellation.  See module docstring."""

    def __init__(self, initial_time: float = 0.0, tie_breaker=None):
        from repro.simkernel.core import InsertionOrder

        self._now = float(initial_time)
        self._queue: list = []
        self._eid = 0
        self.tie_breaker = tie_breaker if tie_breaker is not None else InsertionOrder()
        self.active_process = None
        self.swallowed_faults = 0

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name=None):
        from repro.simkernel.process import Process

        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, self.tie_breaker.key(self._eid), event),
        )

    def cancel(self, event: Event) -> bool:
        """The historical behaviour: no cancellation — the event stays on
        the heap and is processed as a dead no-op.  Always False."""
        return False

    def peek(self) -> float:
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("no scheduled events") from None

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if event.failed and not event.defused:
            if isinstance(event._value, FaultError):
                self.swallowed_faults += 1
                return
            raise event._value

    def run(self, until: Any = None) -> Any:
        if until is None:
            stop: Optional[Event] = None
            horizon = float("inf")
        elif isinstance(until, Event):
            stop = until
            horizon = float("inf")
            if stop.callbacks is None:  # already processed
                if stop.failed:
                    stop.defuse()
                    raise stop._value
                return stop._value
            done = []
            stop.callbacks.append(done.append)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past (now={self._now})")
            stop = None

        while self._queue:
            if self.peek() > horizon:
                self._now = horizon
                return None
            self.step()
            if stop is not None and stop.processed:
                if stop.failed:
                    stop.defuse()
                    raise stop._value
                return stop._value

        if stop is not None:
            raise SimulationError("schedule is empty but the `until` event never fired")
        if horizon != float("inf"):
            self._now = horizon
        return None
