"""DataTap writers: asynchronous, pausable producers."""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.simkernel import Environment, Event, schedule_step
from repro.simkernel.errors import SimulationError
from repro.simkernel.events import NORMAL
from repro.cluster.node import Node
from repro.data import DataChunk
from repro.datatap.buffer import StagingBuffer
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.perf.registry import REGISTRY

if TYPE_CHECKING:
    from repro.datatap.link import DataTapLink


#: Wire size of a metadata push: variable descriptors, offsets, RDMA keys.
METADATA_BYTES = 1024

#: Seconds a pause waits after the last in-flight metadata push for
#: outstanding RDMA state on the NIC to settle before downstream teardown
#: is safe (the cost Figure 5 measures).
PAUSE_FLUSH_DELAY = 0.05


class DataTapWriter:
    """The producer half of a DataTap link.

    ``write(chunk)`` buffers the chunk locally and pushes metadata to a
    downstream reader, returning as soon as the chunk is safely buffered —
    the producer never waits for the data itself to move.  If the buffer is
    full the write blocks (this is how a stalled pipeline eventually blocks
    the application).

    ``pause()`` implements the decrease-protocol requirement: after the pause
    completes, no further metadata leaves this writer, and any in-flight
    metadata pushes have finished, so the downstream container can be resized
    without losing timesteps.  Buffering continues while paused — the paper
    notes the upstream component "can move on to its processing of other
    time steps".
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        node: Node,
        buffer: Optional[StagingBuffer] = None,
        name: str = "writer",
        retain_until_processed: bool = False,
    ):
        self.env = env
        self.messenger = messenger
        self.node = node
        self.name = name
        # Note: an empty StagingBuffer is falsy (len 0), so test identity.
        self.buffer = (
            buffer if buffer is not None
            else StagingBuffer(env, node, node.memory_free / 2, name=f"{name}.buf")
        )
        self.link: Optional["DataTapLink"] = None
        #: fault-tolerance mode: keep custody of a chunk past its pull, until
        #: the consumer acks it *processed*, so a reader crash can be healed
        #: by redelivering from the buffer (see :meth:`redeliver_unacked`)
        self.retain_until_processed = retain_until_processed

        self._paused = False
        self._pending_meta: List[DataChunk] = []  # metadata deferred by pause
        self._inflight_meta = 0
        self._drained: Optional[Event] = None
        #: per-writer chunk sequence numbers (idempotent-redelivery identity)
        self._next_seq = 0
        self._chunk_seq: dict = {}
        #: chunk_id -> reader name the metadata was last pushed to
        self._assigned: dict = {}
        #: retained chunk_ids already pulled downstream (a live copy exists)
        self._pulled = set()
        #: chunk_id -> callback chaining custody upstream: the producer's
        #: *input* is only acked once this output chunk is safely handed
        #: off (processed downstream, or flushed to disk), so a node crash
        #: between producing and delivering loses no timestep
        self._parent_acks: dict = {}
        #: monitoring
        self.chunks_written = 0
        self.pause_count = 0
        self.redelivered = 0

    # -- state ------------------------------------------------------------------

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def backlog(self) -> int:
        """Chunks buffered locally but whose metadata has not been pushed."""
        return len(self._pending_meta)

    # -- data plane -----------------------------------------------------------------

    def write(self, chunk: DataChunk) -> Event:
        """Asynchronous write; the event fires once the chunk is buffered.

        A chunk that fits is inserted now, and one step later the sequence
        number is assigned, the metadata dispatched and the event fired.  A
        full buffer parks the chunk until a release makes room, then takes
        that same step.
        """
        if self.link is None:
            raise SimulationError(f"writer {self.name!r} is not attached to a link")
        done = Event(self.env)
        self._insert(chunk, done)
        return done

    def _insert(self, chunk: DataChunk, done: Event) -> None:
        if self.buffer.try_insert(chunk):
            schedule_step(self.env, lambda _: self._written(chunk, done), NORMAL)
        else:
            self.buffer.space_waiter().callbacks.append(
                lambda _: self._insert(chunk, done)
            )

    def _written(self, chunk: DataChunk, done: Event) -> None:
        self.chunks_written += 1
        self._chunk_seq[chunk.chunk_id] = self._next_seq
        self._next_seq += 1
        if self._paused:
            self._pending_meta.append(chunk)
        else:
            self._dispatch_metadata(chunk)
        done.succeed(chunk)

    def _dispatch_metadata(self, chunk: DataChunk) -> None:
        """Push metadata, subject to the link's credit window.

        A dispatch beyond the window is deferred (the chunk stays in the
        buffer) until a downstream completion returns a credit; without
        flow control every dispatch is the fire-and-forget push.
        """
        link = self.link
        if link is not None and not link.credits.try_acquire(self.name, chunk.chunk_id):
            link.credits.defer(self, chunk)
            return
        self.spawn_metadata_push(chunk)

    def spawn_metadata_push(self, chunk: DataChunk) -> None:
        """Fire-and-forget metadata push; the writer does not wait.

        The send starts now.  Its completion ends the push's in-flight
        count (waking a pause waiting for the drain); a send lost to a
        fault stays unwatched, so it lands in ``env.swallowed_faults``,
        and any other failure surfaces from the run.
        """
        reader_name = self.link.next_reader_for(self)
        self._assigned[chunk.chunk_id] = reader_name
        self._inflight_meta += 1
        meta = Message(
            MessageType.DATA_METADATA,
            sender=self.name,
            payload={
                "chunk_id": chunk.chunk_id,
                "seq": self._chunk_seq.get(chunk.chunk_id),
                "nbytes": chunk.nbytes,
                "natoms": chunk.natoms,
                "timestep": chunk.timestep,
                "writer": self.name,
                "writer_node": self.node.node_id,
            },
            size_bytes=METADATA_BYTES,
        )
        self.messenger.send(self.node, reader_name, meta).callbacks.append(self._meta_sent)

    def _meta_sent(self, _event) -> None:
        self._inflight_meta -= 1
        if self._inflight_meta == 0 and self._drained is not None:
            self._drained.succeed()
            self._drained = None

    def needs_delivery(self, chunk_id: int) -> bool:
        """True while the chunk awaits a (re)pull from this buffer.

        False once pulled (retention mode) or released — the signal readers
        use to drop duplicate metadata instead of pulling twice.
        """
        return chunk_id in self.buffer and chunk_id not in self._pulled

    def on_pull_complete(self, chunk_id: int) -> None:
        """Reader confirmed the RDMA pull; free the buffered chunk.

        In retention mode custody outlives the pull: the chunk stays
        buffered until :meth:`on_processed`, so a consumer that dies with
        the chunk queued (or in service) has not destroyed the only copy.
        """
        if self.retain_until_processed:
            self._pulled.add(chunk_id)
            return
        self._forget(chunk_id)
        self.buffer.release(chunk_id)

    def on_processed(self, chunk_id: int) -> None:
        """Consumer fully processed the chunk; custody ends."""
        self._forget(chunk_id)
        if chunk_id in self.buffer:
            self.buffer.release(chunk_id)

    def _forget(self, chunk_id: int) -> None:
        self._chunk_seq.pop(chunk_id, None)
        self._assigned.pop(chunk_id, None)
        self._pulled.discard(chunk_id)
        ack = self._parent_acks.pop(chunk_id, None)
        if ack is not None:
            ack()

    def defer_parent_ack(self, chunk_id: int, callback) -> None:
        """Chain custody: run ``callback`` when this chunk's custody ends.

        The producing replica registers its input-ack here instead of
        firing it at emit time, so the upstream buffer keeps the input
        until the derived output has itself been safely handed off.
        """
        self._parent_acks[chunk_id] = callback

    def release_handed_off(self) -> None:
        """Crash cleanup: complete the handoff of already-pulled chunks.

        The writer's node died.  Chunks a downstream reader had pulled
        have a live copy there, so their upstream inputs are acked (re-
        producing them would deliver the timestep twice); everything else
        in the buffer died with the node and keeps its input unacked, to
        be re-produced via upstream redelivery.
        """
        for chunk_id in sorted(self._pulled):
            ack = self._parent_acks.pop(chunk_id, None)
            if ack is not None:
                ack()

    def redeliver_unacked(self, reader_name: str) -> int:
        """Re-push every retained chunk last assigned to ``reader_name``.

        The recovery path after a reader crash: chunks the dead reader had
        pulled-but-not-processed (and any whose metadata it never consumed)
        are still in this buffer, so push their metadata again — same chunk
        id, same sequence number — and let link-level dedup make the
        redelivery idempotent for chunks that did survive downstream.
        """
        count = 0
        for chunk_id, assigned in sorted(self._assigned.items()):
            if assigned != reader_name or chunk_id not in self.buffer:
                continue
            chunk = self.buffer.get(chunk_id)
            # The dead reader's copy died with it: custody reverts to
            # "not delivered" so a later resume() re-pushes it too, and
            # the link's delivery commit is revoked so the re-pull is not
            # dropped as a duplicate.
            self._pulled.discard(chunk_id)
            if self.link is not None:
                self.link.delivered.discard(chunk_id)
            count += 1
            self.redelivered += 1
            REGISTRY.count("datatap.redelivered")
            if self._paused:
                if chunk not in self._pending_meta:
                    self._pending_meta.append(chunk)
            else:
                # Recovery traffic bypasses the credit gate: the chunk's
                # original dispatch already consumed a credit (or its holder
                # died), and throttling redelivery would couple fault
                # handling to flow control.
                self.spawn_metadata_push(chunk)
        return count

    def drain_buffer(self) -> List[DataChunk]:
        """Remove and return every buffered chunk (the offline flush path).

        Used when the downstream container is pruned: the buffered chunks
        will never be pulled, so the caller writes them to disk instead.
        Deferred metadata is discarded with them.
        """
        chunks = []
        for chunk_id in list(self.buffer._chunks):
            chunk = self.buffer.get(chunk_id)
            # A retained-but-pulled chunk has a live copy downstream; release
            # custody without flushing it, or the strand path would write the
            # timestep twice.
            if chunk_id not in self._pulled:
                chunks.append(chunk)
            self.buffer.release(chunk_id)
            self._forget(chunk_id)
        self._pending_meta.clear()
        return chunks

    def spill_buffer(self) -> List[DataChunk]:
        """Remove and return buffered chunks with no delivery in flight.

        The failover spill path: when a link's credits collapse, chunks
        whose metadata was never dispatched (deferred against the window,
        or parked by a pause) are diverted to the durable spill store
        instead of waiting out the collapse.  Chunks already pulled (a live
        copy exists downstream) or with metadata in flight (``_assigned``)
        are left alone — the live path still owns them.  Custody transfers
        to the spill store: releasing each chunk fires its parent ack, the
        same handover :meth:`drain_buffer` performs.
        """
        chunks = []
        for chunk_id in list(self.buffer._chunks):
            if chunk_id in self._pulled or chunk_id in self._assigned:
                continue
            chunk = self.buffer.get(chunk_id)
            chunks.append(chunk)
            self.buffer.release(chunk_id)
            self._forget(chunk_id)
            if chunk in self._pending_meta:
                self._pending_meta.remove(chunk)
        return chunks

    # -- control plane ---------------------------------------------------------------

    def pause(self):
        """Process: quiesce the metadata stream.  Fires once fully paused."""
        return self.env.process(self._pause(), name=f"pause:{self.name}")

    def _pause(self):
        self._paused = True
        self.pause_count += 1
        if self._inflight_meta > 0:
            self._drained = Event(self.env)
            yield self._drained
        yield self.env.timeout(PAUSE_FLUSH_DELAY)
        return True

    def resume(self):
        """Process: release the pause and push deferred metadata."""
        return self.env.process(self._resume(), name=f"resume:{self.name}")

    def _resume(self):
        if not self._paused:
            return False
        self._paused = False
        pending, self._pending_meta = self._pending_meta, []
        for chunk in pending:
            # Skip chunks that were pulled through a re-dispatch while paused
            # (for retaining writers "in the buffer" is not enough — a pulled
            # chunk is merely in custody and must not be pushed again).
            if chunk.chunk_id in self.buffer and chunk.chunk_id not in self._pulled:
                self._dispatch_metadata(chunk)
        yield self.env.timeout(0)
        return True

    def __repr__(self) -> str:
        state = "paused" if self._paused else "active"
        return f"<DataTapWriter {self.name!r} {state} buffered={len(self.buffer)}>"
