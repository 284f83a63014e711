"""Counted resources with FIFO queueing.

A :class:`Resource` models a pool of identical capacity units (e.g. the cores
of a staging node, or the injection channel of a NIC).  Processes ``yield
resource.request()`` to acquire a unit and call ``release`` (or use the
request as a context manager) to give it back.  Waiting requests are granted
in arrival order.
"""

from __future__ import annotations

from typing import List

from repro.simkernel.events import Event


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the granted unit, or withdraw a still-queued request."""
        self.resource.release(self)


class Resource:
    """A counted FIFO resource."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.queue: List[Request] = []
        self.users: List[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def try_hold(self, token) -> bool:
        """Take a free slot for ``token`` now, with no :class:`Request` and
        no event; False (and nothing taken) if none is free or anyone is
        queued.

        A request made while a slot is free would be granted at once, so a
        callback walker holds the slot itself instead and gives it back
        with :meth:`release` (``token`` is any object unique to the holder).
        """
        if len(self.users) < self._capacity and not self.queue:
            self.users.append(token)
            return True
        return False

    def release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._trigger_queue()
        elif request in self.queue and not request.triggered:
            self.queue.remove(request)

    # -- internals -------------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            self.queue.append(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.succeed(request)

    def _trigger_queue(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            self._grant(self.queue.pop(0))
