"""Discrete-event simulation kernel.

A small, deterministic process-based discrete-event engine in the style of
SimPy, built from scratch for this reproduction.  Every other subsystem in
:mod:`repro` (cluster, transport, containers, managers) runs as processes on
one :class:`Environment`, so the entire evaluation of the paper is a single
deterministic event-driven program.

Core concepts
-------------
Environment
    Owns the event heap and the simulation clock.  ``env.run(until=...)``
    executes events in timestamp order.
Event
    A one-shot occurrence that processes can wait on.  Succeeds with a value
    or fails with an exception.
Process
    Drives a Python generator; each ``yield``ed event suspends the process
    until the event fires.  Processes can be interrupted.
Resource / Store
    Shared-resource primitives: counted resources with a FIFO wait queue
    and bounded item stores whose puts block while full (used to model
    staging-area queues, whose backlog drives Figures 9 and 10 of the
    paper).
bare_event / schedule_step / processed_event
    The one way to build a walker step: a callback chain that stands in
    for a process schedules a bare event that runs a callback, or hands
    back an already processed event, instead of writing an
    :class:`Event`'s private fields itself.  Transfers, sends and the D2T
    participants take no step; the DataTap writer does.
"""

from repro.simkernel.errors import FaultError, Interrupt, SimulationError
from repro.simkernel.events import (
    AllOf,
    AnyOf,
    Event,
    Timeout,
    bare_event,
    processed_event,
    schedule_step,
)
from repro.simkernel.core import (
    Environment,
    InsertionOrder,
    SeededShuffle,
    TieBreaker,
    shuffle,
)
from repro.simkernel.process import Process
from repro.simkernel.resources import Resource
from repro.simkernel.store import FilterStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FaultError",
    "FilterStore",
    "InsertionOrder",
    "Interrupt",
    "Process",
    "Resource",
    "SeededShuffle",
    "SimulationError",
    "Store",
    "TieBreaker",
    "Timeout",
    "bare_event",
    "processed_event",
    "schedule_step",
    "shuffle",
]
