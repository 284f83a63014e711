"""DataTap readers: pull-when-ready consumers."""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.simkernel import Environment, Event, Interrupt, Store
from repro.simkernel.errors import FaultError, SimulationError
from repro.cluster.node import Node
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.perf.registry import REGISTRY

_DUP_DROPPED = REGISTRY.handle("datatap.dup_dropped")

if TYPE_CHECKING:
    from repro.datatap.link import DataTapLink
    from repro.datatap.scheduling import NoPullScheduler, PullScheduler

#: Wire size of the pull-completion notification back to the writer.
PULL_DONE_BYTES = 128


class DataTapReader:
    """The consumer half of a DataTap link.

    A reader loops: receive a metadata push, *reserve* room in its output
    queue, get a slot from the pull scheduler, RDMA-GET the chunk from the
    writer's buffer, notify the writer (freeing its buffer), and deposit the
    chunk.  Reserving queue space before moving any data is what makes the
    transport "controlled data movement [that does] not overwhelm receivers"
    (Section III).
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        node: Node,
        name: str,
        out_queue: Store,
        scheduler: PullScheduler | NoPullScheduler,
    ):
        self.env = env
        self.messenger = messenger
        self.node = node
        self.name = name
        self.out_queue = out_queue
        #: pull admission: a PullScheduler, or NoPullScheduler (unscheduled)
        self.scheduler = scheduler
        self.link: Optional["DataTapLink"] = None
        self.endpoint = messenger.endpoint(node, name)
        self._proc = env.process(self._run(), name=f"dtreader:{name}")
        self._inflight = 0
        self._current_meta: Optional[Message] = None
        self._drained: Optional[Event] = None
        #: metadata whose pulls were cancelled by teardown (chunks remain in
        #: the writer's buffer)
        self.cancelled_meta: List[Message] = []
        self.stopped = False
        #: monitoring
        self.chunks_pulled = 0
        self.bytes_pulled = 0.0

    # -- main loop -------------------------------------------------------------------

    def _run(self):
        while True:
            try:
                meta = yield self.endpoint.recv(MessageType.DATA_METADATA)
            except Interrupt:
                return
            self._inflight += 1
            self._current_meta = meta
            try:
                yield from self._pull(meta)
            except Interrupt:
                # Teardown raced the pull, which cancelled itself.  The chunk
                # stays in the writer's buffer; stop() hands the metadata
                # back to the link.
                return
            finally:
                self._current_meta = None
                self._inflight -= 1
                if self._inflight == 0 and self._drained is not None:
                    self._drained.succeed()
                    self._drained = None

    def _pull(self, meta: Message):
        info = meta.payload
        try:
            writer = self.link.writer_by_name(info["writer"])
        except SimulationError:
            # Writer torn down (e.g. its node crashed and was replaced)
            # after this metadata was pushed; the chunk is unreachable.
            REGISTRY.count("datatap.orphaned_meta")
            self._release_credit(info["chunk_id"])
            yield self.env.timeout(0)
            return
        # Back-pressure: claim queue space *before* moving any data.
        if not writer.needs_delivery(info["chunk_id"]):
            # Already pulled — through a re-dispatched or redelivered copy of
            # this metadata.  Idempotent redelivery: drop the duplicate.
            self._drop_duplicate()
            self._release_credit(info["chunk_id"])
            yield self.env.timeout(0)
            return
        res_event = self.out_queue.reserve()
        admission = None
        try:
            yield res_event
            admission = self.scheduler.admit()
            token = yield admission
            admission = None
            try:
                done = yield from self._pull_with_retry(writer, info)
            finally:
                if token is not None:
                    self.scheduler.release(token)
            if not done:
                # Unrecoverable transfer faults (writer node dead): give up.
                self.out_queue.cancel_reservation(res_event)
                REGISTRY.count("datatap.pull_failed")
                self._release_credit(info["chunk_id"])
                return
        except Interrupt:
            # Teardown cancel: the metadata is handed back for re-dispatch,
            # so the chunk KEEPS its credit — the eventual pull releases it.
            # A pull slot still on its way goes back to the scheduler.
            # Re-raised to end the reader loop.
            if admission is not None:
                self.scheduler.withdraw(admission)
            self.out_queue.cancel_reservation(res_event)
            self.cancelled_meta.append(meta)
            raise
        if not writer.needs_delivery(info["chunk_id"]) or (
            self.link is not None and info["chunk_id"] in self.link.delivered
        ):
            # A concurrent pull of the same chunk won the race.
            self.out_queue.cancel_reservation(res_event)
            self._drop_duplicate()
            self._release_credit(info["chunk_id"])
            return
        chunk = writer.buffer.get(info["chunk_id"])
        chunk.sources = [(writer.name, info["chunk_id"])]
        writer.on_pull_complete(info["chunk_id"])
        if self.link is not None:
            self.link.delivered.add(info["chunk_id"])
        # Completion notification traffic (fire-and-forget control message).
        self.messenger.network.transfer(self.node, writer.node, PULL_DONE_BYTES)
        self.chunks_pulled += 1
        self.bytes_pulled += info["nbytes"]
        self.out_queue.fulfill(res_event, chunk)
        self._release_credit(info["chunk_id"])

    def _release_credit(self, chunk_id: int) -> None:
        """Return the chunk's flow-control credit at a terminal pull outcome."""
        if self.link is not None:
            self.link.credits.release(chunk_id)

    def _pull_with_retry(self, writer, info):
        """RDMA-GET with exponential backoff; False when retries exhaust."""
        delays = iter(self.messenger.retry.delays())
        while True:
            try:
                yield self.messenger.network.rdma_get(
                    self.node, writer.node, info["nbytes"]
                )
                return True
            except FaultError:
                try:
                    delay = next(delays)
                except StopIteration:
                    return False
                self.messenger.retries += 1
                REGISTRY.count("evpath.retries")
                yield self.env.timeout(delay)

    def _drop_duplicate(self) -> None:
        if self.link is not None:
            self.link.dup_dropped += 1
        _DUP_DROPPED.add()

    # -- teardown ---------------------------------------------------------------------

    def drain(self):
        """Process: fires once no pull is in flight.

        Call only while upstream writers are paused, otherwise new metadata
        can arrive and restart activity after the drain fires.
        """
        return self.env.process(self._drain(), name=f"drain:{self.name}")

    def _drain(self):
        if self._inflight > 0:
            self._drained = Event(self.env)
            yield self._drained
        else:
            yield self.env.timeout(0)
        return True

    def stop(self) -> List[Message]:
        """Stop the loop; returns metadata messages left undelivered.

        Call while upstream writers are paused.  Undelivered metadata —
        inbox backlog, the metadata of any pull cancelled mid-flight (both
        by this stop and by an earlier crash) — is returned so the link can
        re-dispatch it to surviving readers (no timestep lost); the
        corresponding chunks remain safely in the writers' buffers.
        """
        self.stopped = True
        pending = [
            m for m in self.endpoint._inbox.items
            if m.mtype is MessageType.DATA_METADATA
        ]
        self.endpoint._inbox.items = [
            m for m in self.endpoint._inbox.items
            if m.mtype is not MessageType.DATA_METADATA
        ]
        if self._current_meta is not None:
            pending.insert(0, self._current_meta)
        cancelled, self.cancelled_meta = self.cancelled_meta, []
        for meta in cancelled:
            if meta not in pending:
                pending.append(meta)
        if self._proc.is_alive:
            self._proc.interrupt("stop")
        self.messenger.unregister(self.name)
        return pending

    def crash(self) -> None:
        """Violent death (node crash): kill the loop, lose nothing gracefully.

        Unlike :meth:`stop` the endpoint stays registered — a crashed node
        still has an address, it just drops traffic — and no metadata is
        handed back here: recovery re-pushes from the writers' retained
        buffers instead (:meth:`DataTapWriter.redeliver_unacked`), and the
        REPLACE protocol's eventual :meth:`stop` returns the backlog.
        """
        self.stopped = True
        if self._proc.is_alive:
            self._proc.interrupt("crash")

    def __repr__(self) -> str:
        return f"<DataTapReader {self.name!r} pulled={self.chunks_pulled}>"
