"""Exceptions used by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class FaultError(SimulationError):
    """An *injected* failure: a dropped message, a dead node, a timed-out
    request.

    Fault errors model events that are routine in a faulty cluster rather
    than bugs in the simulation.  The environment treats an unobserved
    process failing with a :class:`FaultError` as a lost fire-and-forget
    action (counted, not raised), whereas any other unobserved failure still
    crashes the run — see :meth:`Environment.run`.
    """


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries whatever object the interrupter supplied
    (e.g. a control message asking a DataTap writer to pause).
    """

    def __init__(self, cause=None):
        super().__init__(cause)

    @property
    def cause(self):
        return self.args[0]
