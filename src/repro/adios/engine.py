"""Hot-swappable transport engines: one put() API over stream or file.

ADIOS2's central idea (Poeschel et al., PAPERS.md) is that file-based and
streaming transports sit behind one engine API, so a pipeline can change
how data moves without changing the code that moves it.  This module
reproduces that seam:

* :class:`SstEngine` — an SST-style publish/subscribe stream with
  *reader-side* flow control: each subscriber grants the publisher a
  bounded window of in-flight chunks, and the publisher blocks when a
  subscriber's window is exhausted.  Distinct from DataTap's
  metadata-push / RDMA-pull model (the reader never "pulls"; the
  publisher pushes whole chunks as windows open).
* :class:`FileEngine` — the degrade-to-disk transport: puts become
  sequenced, content-digested segments on a :class:`~repro.adios.spill.SpillStore`,
  readable later in order (the replay path).
* :class:`DataTapEngine` — an adapter over the legacy DataTap writer, so
  existing pipelines slot behind the same API unchanged.

:class:`EngineSwitch` holds one engine per transport name and the
failover state machine (live → spilling → replaying → live); the
:class:`~repro.adios.failover.FailoverManager` drives its transitions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.simkernel import Environment, Event, Resource
from repro.fate import FateLedger
from repro.adios.spill import SpillStore

#: failover states of a link's transport
LIVE = "live"
SPILLING = "spilling"
REPLAYING = "replaying"
FAILOVER_STATES = (LIVE, SPILLING, REPLAYING)


class Engine:
    """Abstract transport engine: ``put(chunk)`` moves one timestep."""

    name = "engine"

    def put(self, chunk, attributes: Optional[dict] = None):
        """Start moving ``chunk``; returns an event firing on completion."""
        raise NotImplementedError

    def close(self) -> None:
        pass


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


class SstEngine(Engine):
    """Engine adapter over an :class:`SstStream` publisher."""

    name = "sst"

    def __init__(self, stream: SstStream, src_node=None):
        self.stream = stream
        self.src_node = src_node

    def put(self, chunk, attributes: Optional[dict] = None):
        return self.stream.publish(chunk, attributes, src_node=self.src_node)


class FileEngine(Engine):
    """Engine adapter over a :class:`SpillStore`: puts become spills.

    A put records a spill in ``ledger`` and completes once the segment is
    durable.  Used standalone (e.g. as a history tee for cold-start
    replay) the engine keeps a private :class:`~repro.fate.FateLedger` and
    writes its own segments; the failover layer passes the pipeline's
    ledger instead, whose subscriber writes them.
    """

    name = "file"

    def __init__(
        self,
        env: Environment,
        store: SpillStore,
        node,
        stage: str = "file",
        ledger: Optional[FateLedger] = None,
        reason: str = "credit_collapse",
    ):
        self.env = env
        self.store = store
        self.node = node
        self.stage = stage
        if ledger is None:
            ledger = FateLedger()
            ledger.spill_subscribers.append(
                lambda record, _: store.write_segment(node, record)
            )
        self.ledger = ledger
        self.reason = reason

    def put(self, chunk, attributes: Optional[dict] = None):
        record = self.ledger.spill(
            chunk.timestep, self.stage, self.reason, self.env.now,
            nbytes=chunk.nbytes, chunk_id=getattr(chunk, "chunk_id", None),
        )
        if record is None:  # timestep already has a fate; durable no-op
            return self.env.timeout(0)
        return self.store.durable(record.seq)

    def read_history(self, node, upto_seq: Optional[int] = None):
        """Process: read every recorded segment in seq order (the cold-start
        catch-up path); fires with the list of records read."""
        return self.env.process(self._read_history(node, upto_seq))

    def _read_history(self, node, upto_seq):
        out = []
        for record in list(self.ledger.spill_records):
            if upto_seq is not None and record.seq > upto_seq:
                break
            yield self.store.read_segment(node, record)
            out.append(record)
        return out


class DataTapEngine(Engine):
    """Engine adapter over the legacy DataTap writer (metadata-push/pull)."""

    name = "datatap"

    def __init__(self, writer):
        self.writer = writer

    def put(self, chunk, attributes: Optional[dict] = None):
        return self.writer.write(chunk)


class EngineSwitch:
    """Per-link transport selection plus the failover state machine.

    Holds one engine per transport name; ``current`` names the live
    transport.  State transitions (live → spilling → replaying → live)
    are recorded with timestamps so the DST handover oracle can audit
    that every spill epoch was closed by a handover.
    """

    def __init__(
        self,
        name: str,
        engines: Optional[Dict[str, Engine]] = None,
        current: str = "datatap",
    ):
        self.name = name
        self.engines: Dict[str, Engine] = dict(engines or {})
        self.current = current
        self.state = LIVE
        #: (time, from_state, to_state) transitions, in order
        self.transitions: List[Tuple[float, str, str]] = []
        #: highest spill seq handed over at the last replay (None = never)
        self.watermark: Optional[int] = None

    @property
    def engine(self) -> Engine:
        return self.engines[self.current]

    def add_engine(self, engine: Engine, name: Optional[str] = None) -> None:
        self.engines[name or engine.name] = engine

    def switch_to(self, name: str) -> Engine:
        if name not in self.engines:
            raise KeyError(
                f"switch {self.name!r} has no engine {name!r}; "
                f"known: {sorted(self.engines)}"
            )
        self.current = name
        return self.engines[name]

    def put(self, chunk, attributes: Optional[dict] = None):
        return self.engine.put(chunk, attributes)

    def set_state(self, state: str, time: float) -> None:
        if state not in FAILOVER_STATES:
            raise ValueError(f"unknown failover state {state!r}")
        if state != self.state:
            self.transitions.append((time, self.state, state))
            self.state = state

    def __repr__(self) -> str:
        return (
            f"<EngineSwitch {self.name!r} current={self.current!r} "
            f"state={self.state}>"
        )
