"""Processes: generators driven by the event loop.

A process wraps a Python generator.  Each value the generator ``yield``s must
be an :class:`~repro.simkernel.events.Event`; the process suspends until the
event fires, then resumes with the event's value (or has the event's exception
thrown into it).  ``return value`` ends the process and becomes the value of
the process-event itself, so processes compose: ``result = yield env.process(
sub())``.

Hot-path notes: every suspend/resume cycle used to allocate a fresh bound
method for the subscription; ``_resume_cb`` is bound once per process
instead.  Per-message callers (the messenger, datatap movers) pass names as
lazy ``(format, *args)`` tuples that are only rendered when somebody reads
``process.name`` (repr, traces, error messages).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.simkernel.errors import Interrupt, SimulationError
from repro.simkernel.events import Event, Initialize, URGENT


class Process(Event):
    """A running process.  Also an event that fires when the process ends."""

    __slots__ = ("_generator", "_target", "_name", "_resume_cb", "__weakref__")

    def __init__(self, env, generator: Generator, name=None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        Event.__init__(self, env)
        self._generator = generator
        #: None (derive from the generator), a str, or a lazy
        #: ``(format_string, *args)`` tuple rendered on first read.
        self._name = name
        #: The event this process is currently waiting on (None when running
        #: or finished).
        self._target: Optional[Event] = None
        #: The one bound method used for every event subscription; dropped
        #: when the generator ends, so a finished process is no longer in a
        #: reference cycle with itself and is freed without the collector.
        self._resume_cb = self._resume
        Initialize(env, self)

    @property
    def name(self) -> str:
        """The process name, rendered lazily for tuple-form names."""
        n = self._name
        if n is None:
            return getattr(self._generator, "__name__", "process")
        if type(n) is tuple:
            n = self._name = n[0].format(*n[1:])
        return n

    @name.setter
    def name(self, value) -> None:
        self._name = value

    @property
    def is_alive(self) -> bool:
        """True while the process has not terminated."""
        return self._value is Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is delivered asynchronously (via an urgent event) so
        that interrupting from within another process is safe.
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")

        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume_cb)
        self.env.schedule(event, URGENT)

    # -- engine ---------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env.active_process = self

        # If we were interrupted, unsubscribe from the event we were waiting
        # on; it may still fire later and must not resume us twice.  If that
        # leaves a triggered, successful event with no subscribers at all it
        # is a dead no-op on the heap — tombstone it.
        target = self._target
        if event is not target and target is not None:
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
                if not callbacks and target._value is not Event.PENDING and target._ok:
                    env.cancel(target)

        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._target = self._resume_cb = None
                env.active_process = None
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as error:
                self._target = self._resume_cb = None
                env.active_process = None
                self._ok = False
                # The traceback's first entry is this frame, which holds
                # ``self``: drop it, keeping the generator's frames, so the
                # failed process is not in a cycle through its own value.
                self._value = error.with_traceback(error.__traceback__.tb_next)
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                generator.throw(error)
                continue

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event pending: subscribe and suspend.  Yielding a
                # tombstoned event revives it.
                if next_event._cancelled:
                    next_event._cancelled = False
                    env._tombstones -= 1
                callbacks.append(self._resume_cb)
                self._target = next_event
                env.active_process = None
                return

            # Event already processed: loop and feed its value immediately.
            event = next_event

    def __repr__(self) -> str:
        state = "finished" if not self.is_alive else "alive"
        return f"<Process {self.name!r} {state}>"
