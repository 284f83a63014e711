"""The simulation environment: clock + event heap.

The :class:`Environment` is deliberately minimal — a binary heap of
``(time, priority, tie_key, event)`` tuples.  With the default
:class:`InsertionOrder` tie-breaker the tie key is the scheduling sequence
number, so two events scheduled for the same time and priority always
execute in scheduling order and every experiment in this repository is
exactly reproducible.  A :class:`SeededShuffle` tie-breaker instead
permutes same-``(time, priority)`` event groups deterministically from a
seed — the schedule-exploration knob the :mod:`repro.dst` harness sweeps:
one seed is one reproducible interleaving.

Engine fast path
----------------
Everything in :mod:`repro` executes through this loop, so it is written
for raw events/sec (gated by ``tests/test_speed_gates.py``):

* :meth:`Environment.run` inlines the pop/dispatch cycle — localized
  ``heappop``, direct tuple indexing, direct ``__slots__`` reads instead
  of the ``peek()``/``failed``/``processed`` property round-trips, and no
  per-step ``try/except`` — with a dedicated tight loop for the common
  run-to-exhaustion case;
* :meth:`schedule` is monomorphic for the two stock tie-breakers: with
  :class:`InsertionOrder` the tie key is the sequence number itself, and
  :class:`SeededShuffle`'s splitmix64 rank is computed inline and packed
  with the sequence number into one int that orders exactly like its
  ``(rank, eid)`` key — no virtual :meth:`TieBreaker.key` call either way
  (any other tie-breaker still goes through the virtual call);
* abandoned events — request-timeout losers, the stale targets of
  interrupted processes — are *tombstoned* by :meth:`cancel` and skipped
  at pop instead of processed as dead no-ops; when tombstones dominate a
  large heap, :meth:`_compact` drops them wholesale without popping.

The pre-optimization loop is kept verbatim in
:mod:`tests.oracles.simkernel`; a differential property test pins this
implementation to it event-for-event.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Generator, Iterable, Optional

from repro.simkernel.errors import FaultError, SimulationError
from repro.simkernel.events import AllOf, AnyOf, Event, NORMAL, Timeout
from repro.simkernel.process import Process

_INF = float("inf")
_PENDING = Event.PENDING

#: Compaction trigger: at least this many tombstones *and* tombstones
#: outnumbering live entries.  Below the floor, skipping at pop is cheaper
#: than an O(n) rebuild.
_COMPACT_MIN_TOMBSTONES = 512


class TieBreaker:
    """Orders events that share a ``(time, priority)`` heap slot.

    :meth:`key` maps the environment's scheduling sequence number to the
    third element of the heap tuple.  Keys must be unique per event (so
    the comparison never falls through to the events themselves) and of a
    single type per environment (so heap comparisons stay well-defined).
    """

    def key(self, eid: int):
        raise NotImplementedError


class InsertionOrder(TieBreaker):
    """The default: same-slot events run in scheduling order (bit-for-bit
    the historical schedule — no behaviour change).

    :meth:`Environment.schedule` special-cases this class: the tie key is
    the sequence number directly, with no virtual call on the hot path.
    """

    def key(self, eid: int) -> int:
        return eid


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a platform-stable 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SeededShuffle(TieBreaker):
    """Deterministically permutes same-``(time, priority)`` event groups.

    Each event's tie key is ``(rank, eid)`` where ``rank`` is a stable
    64-bit hash of ``(seed, eid)`` — independent of ``PYTHONHASHSEED`` and
    platform — so equal-slot events are uniformly shuffled, the shuffle is
    identical for an identical seed, and ``eid`` still breaks rank
    collisions reproducibly.  Cross-slot ordering (time, then URGENT
    before NORMAL) is untouched: only legal reorderings are explored.

    :meth:`Environment.schedule` computes the same order inline, as the
    int ``rank << 64 | eid``; :meth:`key` stays the oracle it is tested
    against.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._base = _splitmix64(self.seed & _MASK64)

    def key(self, eid: int):
        return (_splitmix64(self._base ^ (eid & _MASK64)), eid)

    def __repr__(self) -> str:
        return f"<SeededShuffle seed={self.seed}>"


def shuffle(seed: int) -> SeededShuffle:
    """Convenience spelling: ``Environment(tie_breaker=shuffle(seed))``."""
    return SeededShuffle(seed)


class Environment:
    """A deterministic discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds by convention
        throughout :mod:`repro`).
    tie_breaker:
        Ordering of events that share a ``(time, priority)`` slot.  The
        default :class:`InsertionOrder` preserves scheduling order;
        :class:`SeededShuffle` explores a seeded permutation.
    """

    def __init__(self, initial_time: float = 0.0,
                 tie_breaker: Optional[TieBreaker] = None):
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = 0
        self.tie_breaker = tie_breaker if tie_breaker is not None else InsertionOrder()
        self.active_process: Optional[Process] = None
        #: fire-and-forget actions lost to injected faults (see :meth:`run`)
        self.swallowed_faults = 0
        #: cancelled entries still sitting on the heap
        self._tombstones = 0
        #: max timestamp among compacted tombstones — at run-to-exhaustion
        #: the clock still advances past them, exactly as if each had been
        #: popped as a dead no-op (reference-engine behaviour)
        self._compacted_horizon = -_INF
        #: engine counters (see :meth:`publish_perf`)
        self.events_processed = 0
        self.tombstones_skipped = 0
        self.heap_peak = 0
        self.compactions = 0
        #: publish_perf() high-water marks (delta publishing)
        self._pub_processed = 0
        self._pub_skipped = 0
        self._pub_compactions = 0
        #: callbacks ``fn(node)`` run after a node of this run fails or is
        #: restored (see :meth:`repro.cluster.node.Node.fail`)
        self.health_listeners: list = []
        #: this run's data-chunk ids, shared by fleet tenants on one heap
        self.chunk_ids = itertools.count()

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- tie-breaker -----------------------------------------------------------

    @property
    def tie_breaker(self) -> TieBreaker:
        return self._tie_breaker

    @tie_breaker.setter
    def tie_breaker(self, tb: TieBreaker) -> None:
        self._tie_breaker = tb
        # Monomorphic fast paths for the stock InsertionOrder and
        # SeededShuffle: no virtual key() call per schedule.  A subclass (or
        # any other tie-breaker) keeps the virtual dispatch.
        self._fast_tiebreak = type(tb) is InsertionOrder
        self._shuffle_base = tb._base if type(tb) is SeededShuffle else None

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name=None) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Place ``event`` on the heap ``delay`` time units in the future."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        eid = self._eid = self._eid + 1
        if self._fast_tiebreak:
            key = eid
        elif self._shuffle_base is not None:
            # SeededShuffle.key inlined: splitmix64(base ^ eid) is the rank,
            # and ``rank << 64 | eid`` orders exactly like the ``(rank, eid)``
            # tuple while eid < 2**64 — an int compares and allocates less.
            x = ((self._shuffle_base ^ eid) + 0x9E3779B97F4A7C15) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            key = (x ^ (x >> 31)) << 64 | eid
        else:
            key = self._tie_breaker.key(eid)
        queue = self._queue
        heappush(queue, (self._now + delay, priority, key, event))
        if len(queue) > self.heap_peak:
            self.heap_peak = len(queue)

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        """Place ``event`` on the heap at the absolute time ``at``.

        ``now + (at - now)`` is not ``at`` in general, so a caller that keeps
        its own float grid of instants schedules on it exactly with this
        rather than with a delay.  Ties order as in :meth:`schedule`.
        """
        if at < self._now:
            raise ValueError(f"time {at} is in the past (now={self._now})")
        eid = self._eid = self._eid + 1
        if self._fast_tiebreak:
            key = eid
        elif self._shuffle_base is not None:
            key = self._tie_breaker.key(eid)[0] << 64 | eid
        else:
            key = self._tie_breaker.key(eid)
        queue = self._queue
        heappush(queue, (at, priority, key, event))
        if len(queue) > self.heap_peak:
            self.heap_peak = len(queue)

    def cancel(self, event: Event) -> bool:
        """Tombstone a scheduled event nobody is waiting on.

        The event is skipped at pop (no callback dispatch, no dead no-op
        processing); if tombstones come to dominate a large heap they are
        compacted away in bulk.  Cancellation is *observationally*
        transparent: the clock still advances over a skipped tombstone
        exactly as it did when the event was processed as a no-op, so
        schedules are bit-for-bit identical with or without it.

        Only events that are (a) triggered but not yet processed, (b) free
        of subscribed callbacks, and (c) not carrying an unhandled failure
        are cancellable; anything else is refused (returns False).  A
        process that *yields* a cancelled event revives it — the tombstone
        turns back into a live event and fires normally.  Do not await an
        event after a compaction may have finalized it: it then reads as
        already processed and its value is delivered immediately.
        """
        callbacks = event.callbacks
        if callbacks is None or callbacks or event._cancelled:
            return False
        if event._value is _PENDING:
            return False
        if not event._ok and not event._defused:
            # An unobserved failure must still surface in run() — see the
            # unhandled-failure contract there.
            return False
        event._cancelled = True
        tombstones = self._tombstones = self._tombstones + 1
        if (
            tombstones >= _COMPACT_MIN_TOMBSTONES
            and tombstones * 2 >= len(self._queue)
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop every tombstone from the heap in one O(n) rebuild.

        In-place (slice assignment) so loops holding a reference to the
        queue — including :meth:`run` itself — stay valid.  Compacted
        events are finalized (they read as processed) and their max
        timestamp is retained so a run to exhaustion still ends with the
        clock where the reference engine would have left it.
        """
        queue = self._queue
        horizon = self._compacted_horizon
        live = []
        append = live.append
        skipped = 0
        for entry in queue:
            event = entry[3]
            if event._cancelled:
                event._cancelled = False
                event.callbacks = None  # finalized: reads as processed
                skipped += 1
                if entry[0] > horizon:
                    horizon = entry[0]
            else:
                append(entry)
        heapify(live)
        queue[:] = live
        self._compacted_horizon = horizon
        self.tombstones_skipped += skipped
        self._tombstones = 0
        self.compactions += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else _INF

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an :class:`Event`, or exhaustion).

        * ``until is None`` — run until no events remain.
        * number — run until the clock reaches that time.
        * :class:`Event` — run until that event is processed; returns its
          value (or raises its exception).

        A processed failed event nobody defused surfaces: its exception is
        raised out of the run, unless it is a :class:`FaultError`.  That is
        a fire-and-forget action lost to an injected fault (say, a
        completion notification racing a node crash), routine in a faulty
        cluster, so it is counted in ``swallowed_faults`` instead.  Popping
        a tombstoned (cancelled) entry advances the clock but runs nothing.
        """
        if until is None:
            stop: Optional[Event] = None
            horizon = _INF
        elif isinstance(until, Event):
            stop = until
            horizon = _INF
            if stop.callbacks is None:  # already processed
                if stop._value is not _PENDING and not stop._ok:
                    stop._defused = True
                    raise stop._value
                return stop._value
            if stop._cancelled:  # waiting on it revives the tombstone
                stop._cancelled = False
                self._tombstones -= 1
            done = []
            stop.callbacks.append(done.append)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past (now={self._now})")
            stop = None

        # The hot loop.  Everything the reference engine reaches through
        # properties and helper calls is inlined: heappop is local, tuple
        # elements are indexed directly, event state is read straight off
        # the __slots__.  Event/skip counts accumulate in locals and are
        # flushed on every exit path by the finally block.
        queue = self._queue
        pop = heappop
        processed = 0
        skipped = 0
        try:
            if stop is None and horizon is _INF:
                # Run to exhaustion: no horizon check, no stop check.
                while queue:
                    entry = pop(queue)
                    event = entry[3]
                    self._now = entry[0]
                    callbacks = event.callbacks
                    event.callbacks = None
                    if event._cancelled:
                        event._cancelled = False
                        self._tombstones -= 1
                        skipped += 1
                        continue
                    for callback in callbacks:
                        callback(event)
                    processed += 1
                    if not event._ok and not event._defused:
                        if isinstance(event._value, FaultError):
                            self.swallowed_faults += 1
                        else:
                            raise event._value
            else:
                while queue:
                    entry = queue[0]
                    if entry[0] > horizon:
                        self._now = horizon
                        return None
                    entry = pop(queue)
                    event = entry[3]
                    self._now = entry[0]
                    callbacks = event.callbacks
                    event.callbacks = None
                    if event._cancelled:
                        event._cancelled = False
                        self._tombstones -= 1
                        skipped += 1
                        continue
                    for callback in callbacks:
                        callback(event)
                    processed += 1
                    if not event._ok and not event._defused:
                        if isinstance(event._value, FaultError):
                            self.swallowed_faults += 1
                        else:
                            raise event._value
                    if stop is not None and stop.callbacks is None:
                        if not stop._ok:
                            stop._defused = True
                            raise stop._value
                        return stop._value
        finally:
            self.events_processed += processed
            self.tombstones_skipped += skipped

        # Heap exhausted.
        if stop is not None:
            raise SimulationError("schedule is empty but the `until` event never fired")
        if horizon is not _INF:
            self._now = horizon
        elif self._compacted_horizon > self._now:
            # Compacted tombstones beyond the last live event: the reference
            # engine would have popped them as dead no-ops and left the
            # clock at the latest one.
            self._now = self._compacted_horizon
        return None

    # -- observability ---------------------------------------------------------

    def publish_perf(self, registry=None) -> None:
        """Mirror the engine counters into a :mod:`repro.perf` registry.

        Counters are published as deltas since the previous call, so
        repeated publication (end of run, end of drain, end of bench) never
        double-counts; ``engine.heap_peak`` is folded in as a maximum.
        """
        if registry is None:
            from repro.perf.registry import REGISTRY as registry
        registry.count("engine.events_processed",
                       self.events_processed - self._pub_processed)
        registry.count("engine.tombstones_skipped",
                       self.tombstones_skipped - self._pub_skipped)
        registry.count("engine.compactions",
                       self.compactions - self._pub_compactions)
        registry.count_max("engine.heap_peak", self.heap_peak)
        self._pub_processed = self.events_processed
        self._pub_skipped = self.tombstones_skipped
        self._pub_compactions = self.compactions
