"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence.  It moves through three states:

* *untriggered* — created, nobody has scheduled it;
* *triggered* — scheduled on the environment's heap with a value or error;
* *processed* — the environment has popped it and run its callbacks.

Processes wait on events by ``yield``-ing them; the process machinery adds a
resume callback.  Events may carry a value (``event.value``) or an exception
(``event.failed``), mirroring the SimPy contract.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.simkernel.errors import SimulationError

# Scheduling priorities: URGENT events (process resumption bookkeeping) run
# before NORMAL events that share the same timestamp.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot event that processes can wait for.

    Parameters
    ----------
    env:
        The :class:`~repro.simkernel.core.Environment` the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    #: Sentinel for "not yet triggered".
    PENDING = object()

    def __init__(self, env):
        self.env = env
        #: Callables invoked (in order) when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: bool = True
        self._defused: bool = False
        #: Tombstone flag — see :meth:`Environment.cancel`.  A cancelled
        #: event is still on the heap but is skipped at pop; subscribing to
        #: it (a process yield, a condition) revives it.
        self._cancelled: bool = False

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value or error."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is discarded)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def failed(self) -> bool:
        return self.triggered and not self._ok

    @property
    def value(self) -> Any:
        if self._value is Event.PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run.

        The environment raises the exception of any *processed* failed event
        that no process caught, to surface silent failures.  Calling
        :meth:`defuse` suppresses that.
        """
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to succeed with ``value`` at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fail with ``exception`` at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, NORMAL)
        return self

    # -- composition ---------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def bare_event(env, callback: Optional[Callable[[Event], None]] = None) -> Event:
    """An event that already holds the value ``None`` but is not scheduled.

    The caller places it on the heap (``env.schedule``, ``env.schedule_at``)
    to run ``callback`` then, or marks it processed; :func:`schedule_step`
    places it now.
    """
    ev = Event(env)
    ev._value = None
    if callback is not None:
        ev.callbacks.append(callback)
    return ev


def schedule_step(env, fn: Callable[[Event], None], priority: int) -> None:
    """Schedule a bare event that runs ``fn`` at ``priority`` now.

    This is how a callback walker takes a step that carries no time: the
    stand-in for a process's ``Initialize`` or a fired ``Condition`` on the
    process path it replaces, which places the walker among the events of
    one instant.  The DataTap writer's ``NORMAL`` step takes it (its order
    moves the experiment output), and so do the D2T participant rounds.
    """
    env.schedule(bare_event(env, fn), priority)


def processed_event(env, value: Any = None) -> Event:
    """An event that has already fired with ``value``.

    A process that yields it resumes at once with ``value``, and nothing is
    scheduled: the stand-in for a wait that a walker resolved at call time
    (an always-admitted pull, a pull token taken from a free slot).
    """
    ev = Event(env)
    ev._value = value
    ev.callbacks = None
    return ev


class Timeout(Event):
    """An event that fires after a simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        # Negative delays are rejected by Environment.schedule — the single
        # validation point (this used to be checked here as well).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        env.schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event that starts a process at creation time."""

    __slots__ = ()

    def __init__(self, env, process):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        env.schedule(self, URGENT)


class Condition(Event):
    """Waits for a combination of events (``&`` / ``|`` or AllOf / AnyOf).

    The condition's value is a dict mapping each *triggered* constituent event
    to its value, in trigger order.
    """

    __slots__ = ("_evaluate", "_events", "_count", "_cb")

    def __init__(self, env, evaluate: Callable[[List[Event], int], bool], events: Iterable[Event]):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        # One bound method for all subscriptions: cheaper to append, and
        # list.remove() in _prune_waiters hits the identity fast path.
        cb = self._cb = self._check

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events of a condition must share an environment")

        # An empty condition is vacuously satisfied (all of nothing / any of
        # nothing both fire immediately, matching the SimPy contract).
        if not self._events:
            self.succeed(None)
            return

        # Immediately check already-processed events, then subscribe.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                if event._cancelled:  # waiting on a tombstone revives it
                    event._cancelled = False
                    env._tombstones -= 1
                event.callbacks.append(cb)

        # If an already-processed constituent fired the condition mid-loop,
        # events subscribed after it are already losers — drop them now.
        if self._value is not Event.PENDING:
            self._prune_waiters()

    def _ordered_values(self) -> dict:
        values = {}
        for event in self._events:
            if isinstance(event, Condition):
                values.update(event._ordered_values())
            elif event.callbacks is None and event._ok:
                # Only *processed* events count: a Timeout carries its value
                # from creation, so `triggered` alone would leak unfired
                # deadlines into the result set.
                values[event] = event._value
        return values

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event.failed:
                event.defuse()
            return
        self._count += 1
        if event.failed:
            event.defuse()
            self.fail(event._value)
            self._prune_waiters()
        elif self._evaluate(self._events, self._count):
            self.succeed(None)
            self._prune_waiters()

    def _prune_waiters(self) -> None:
        """Unsubscribe from constituents that can no longer matter.

        Once the condition has fired, a *triggered, successful* constituent
        still on the heap is a pure no-op when popped (the old `_check`
        early-return).  Drop our callback from it, and if nobody else waits
        on it either, tombstone it so the engine can skip or compact it —
        this is how `any_of([reply, timeout])` loser timers vanish from the
        heap.  Untriggered or failed constituents keep the subscription:
        they may still fail later and need defusing.
        """
        cb = self._cb
        cancel = self.env.cancel
        for event in self._events:
            callbacks = event.callbacks
            if callbacks and event._value is not Event.PENDING and event._ok:
                try:
                    callbacks.remove(cb)
                except ValueError:
                    pass
                if not callbacks:
                    cancel(event)

    def succeed(self, value: Any = None) -> "Event":  # noqa: D102 - see Event
        return super().succeed(self._ordered_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires when all of ``events`` have fired."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires when any of ``events`` has fired."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
