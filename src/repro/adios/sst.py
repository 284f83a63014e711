"""An SST-style publish/subscribe stream: the replay path's transport.

Each subscriber grants the publisher a bounded window of in-flight
chunks, and the publisher blocks when a subscriber's window is exhausted
(*reader-side* flow control).  Distinct from DataTap's metadata-push /
RDMA-pull model: the reader never "pulls"; the publisher pushes whole
chunks as windows open.  The failover layer's ``replay_catchup`` protocol
streams spilled segments to the sink over one of these.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional, Tuple

from repro.simkernel import Environment, Event, Resource


class SstSubscriber:
    """The consumer half of an SST stream.

    Holds a bounded window (a :class:`Resource`): the publisher acquires
    one slot per in-flight chunk and the slot is only returned when the
    consumer ``get()``s the chunk — reader-side flow control, enforced at
    the subscriber, not negotiated via credits.
    """

    def __init__(
        self,
        env: Environment,
        stream: "SstStream",
        name: str,
        node=None,
        window: int = 4,
    ):
        if window < 1:
            raise ValueError("subscriber window must be >= 1")
        self.env = env
        self.stream = stream
        self.name = name
        self.node = node
        self.window = window
        self._slots = Resource(env, capacity=window)
        self._queue: deque = deque()
        self._waiter: Optional[Event] = None
        #: every chunk consumed, in order: (time, timestep, digest-ish attrs)
        self.received: List[Tuple[float, Any, dict]] = []
        self.consumed = 0
        self.detached = False

    @property
    def backlog(self) -> int:
        """Chunks delivered but not yet consumed."""
        return len(self._queue)

    def _deliver(self, chunk, attributes: dict, slot) -> None:
        self._queue.append((chunk, attributes, slot))
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.succeed()

    def get(self):
        """Process: consume the next chunk (FIFO); frees its window slot."""
        return self.env.process(self._get(), name=("sst-get:{}", self.name))

    def _get(self):
        while not self._queue:
            if self._waiter is None:
                self._waiter = Event(self.env)
            yield self._waiter
        chunk, attributes, slot = self._queue.popleft()
        self._slots.release(slot)
        self.consumed += 1
        self.received.append((self.env.now, chunk, attributes))
        return chunk, attributes

    def detach(self) -> None:
        """Leave the stream; the publisher stops delivering to us."""
        self.detached = True
        self.stream.unsubscribe(self)

    def __repr__(self) -> str:
        return (
            f"<SstSubscriber {self.name!r} window={self.window} "
            f"backlog={self.backlog} consumed={self.consumed}>"
        )


class SstStream:
    """An SST-style publish/subscribe stream.

    ``publish()`` pushes a chunk to every subscriber, blocking on each
    subscriber's window before transferring (over the cluster network
    when both endpoints are known, else a zero-cost local handoff).
    Publication completes when every subscriber has the chunk buffered.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "sst",
        network=None,
    ):
        self.env = env
        self.name = name
        self.network = network
        self.subscribers: List[SstSubscriber] = []
        self.published = 0

    def subscribe(
        self, name: str, node=None, window: int = 4
    ) -> SstSubscriber:
        subscriber = SstSubscriber(self.env, self, name, node=node, window=window)
        self.subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: SstSubscriber) -> None:
        if subscriber in self.subscribers:
            self.subscribers.remove(subscriber)

    def publish(self, chunk, attributes: Optional[dict] = None, src_node=None):
        """Process: deliver ``chunk`` to every current subscriber."""
        return self.env.process(
            self._publish(chunk, dict(attributes or {}), src_node),
            name=("sst-pub:{}", self.name),
        )

    def _publish(self, chunk, attributes: dict, src_node):
        for subscriber in list(self.subscribers):
            if subscriber.detached:
                continue
            # Reader-side flow control: wait for a window slot *before*
            # moving any data toward this subscriber.
            slot = subscriber._slots.request()
            yield slot
            if subscriber.detached:
                subscriber._slots.release(slot)
                continue
            if (
                self.network is not None
                and src_node is not None
                and subscriber.node is not None
                and src_node is not subscriber.node
            ):
                yield self.network.transfer(
                    src_node, subscriber.node, chunk.nbytes
                )
            subscriber._deliver(chunk, attributes, slot)
        self.published += 1
        return chunk

    def __repr__(self) -> str:
        return (
            f"<SstStream {self.name!r} subscribers={len(self.subscribers)} "
            f"published={self.published}>"
        )
