"""Replicas: one component instance on one staging node."""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.simkernel import Environment, Interrupt, Store
from repro.simkernel.errors import SimulationError
from repro.cluster.node import Node
from repro.data import DataChunk
from repro.datatap.reader import DataTapReader, PULL_DONE_BYTES
from repro.datatap.writer import DataTapWriter
from repro.evpath.channel import Messenger

if TYPE_CHECKING:
    from repro.containers.container import Container


class Replica:
    """A single running instance of a container's component.

    An *active* replica owns an input queue fed by a DataTap reader, a worker
    process that services chunks, and one output writer per downstream link
    (or the container's disk sink when no consumer is attached).  A *passive* replica is a
    member node of a TREE/PARALLEL component: it contributes capacity (the
    container's service time divides by the unit count) but data enters and
    leaves through the head replica only.
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        node: Node,
        container: "Container",
        index: int,
        passive: bool = False,
    ):
        self.env = env
        self.messenger = messenger
        self.node = node
        self.container = container
        self.index = index
        self.passive = passive
        self.name = f"{container.name}-r{index}"

        self.queue: Optional[Store] = None
        self.reader: Optional[DataTapReader] = None
        #: one DataTap writer per output link, keyed by link name
        self.writers: Dict[str, DataTapWriter] = {}
        self._worker = None
        self._gather: Dict[int, List[DataChunk]] = {}
        #: True while the worker runs a chunk's service (not waiting for one)
        self._serving = False
        self.current_chunk: Optional[DataChunk] = None
        self.chunks_processed = 0
        self.busy_time = 0.0
        self.retired = False
        self.crashed = False

        if passive:
            return

        self.queue = Store(env, capacity=container.queue_capacity, name=f"{self.name}.q")
        if container.input_link is not None:
            self.reader = DataTapReader(
                env, messenger, node, self.name, self.queue,
                scheduler=container.pull_scheduler,
            )
            container.input_link.add_reader(self.reader)
        for link in container.output_links:
            writer = DataTapWriter(
                env, messenger, node,
                buffer=container._make_buffer(node, link.name),
                name=f"{self.name}.w.{link.name}",
                retain_until_processed=container.retain_output,
            )
            self.writers[link.name] = writer
            link.add_writer(writer)
        self._worker = env.process(self._work(), name=f"worker:{self.name}")

    # -- worker -----------------------------------------------------------------

    def _work(self):
        container = self.container
        while not self.retired:
            try:
                chunk = yield self.queue.get()
            except Interrupt:
                return
            if container.gather_count > 1:
                pending = self._gather.setdefault(chunk.timestep, [])
                pending.append(chunk)
                if len(pending) < container.gather_count:
                    continue
                fragments = self._gather.pop(chunk.timestep)
                chunk = self._merge(fragments)
            if container.stride > 1 and chunk.timestep % container.stride != 0:
                # Frequency reduction in effect: skip this timestep.  A skip
                # is a terminal outcome for the chunk, so custody ends here —
                # and the drop is accounted before custody is released.
                container.skipped += 1
                container.fates.shed(
                    chunk.timestep, container.name, "container_stride",
                    self.env.now, chunk_id=chunk.chunk_id,
                )
                self._ack_sources(chunk)
                continue
            self._serving = True
            try:
                yield from self._service(chunk)
            except Interrupt:
                # Hard retire or crash mid-service (compute, hash or emit):
                # the offline drain strands ``current_chunk``, and after a
                # crash upstream custody redelivers it.
                return
            self._serving = False

    def _merge(self, fragments: List[DataChunk]) -> DataChunk:
        """Combine per-writer fragments of one timestep (the Helper gather)."""
        total_bytes = sum(f.nbytes for f in fragments)
        total_atoms = sum(f.natoms for f in fragments)
        merged = DataChunk(
            timestep=fragments[0].timestep,
            nbytes=total_bytes,
            natoms=total_atoms,
            payload=fragments[0].payload,
            provenance=fragments[0].provenance,
            created_at=min(f.created_at for f in fragments),
            chunk_id=next(self.env.chunk_ids),
        )
        merged.entered_stage_at = min(f.entered_stage_at for f in fragments)
        for fragment in fragments:
            merged.sources.extend(fragment.sources)
        return merged

    def _service(self, chunk: DataChunk):
        start = self.env.now
        self.current_chunk = chunk
        yield self.node.compute(self.container.service_time(chunk))
        self.current_chunk = None
        self.busy_time += self.env.now - start
        self.chunks_processed += 1
        out = chunk.derive(
            self.container.name,
            next(self.env.chunk_ids),
            nbytes=chunk.nbytes * self.container.spec.output_ratio,
            natoms=chunk.natoms,
        )
        out.payload = chunk.payload
        if self.container.hashing:
            # Soft-error detection: hash the output before it leaves the
            # node.  ~2 GiB/s per core is a realistic CRC/xxhash rate.
            yield self.node.compute(out.nbytes / (2 * 2**30))
            out.integrity = f"xxh64:{out.chunk_id:016x}"
        latency = self.env.now - chunk.entered_stage_at
        targets = [l for l in self.container.output_links if l.readers]
        yield self.container.emit(out, self)
        self.container.record_completion(chunk, out, latency, self)
        self._handoff(chunk, out, targets)

    def _handoff(self, in_chunk: DataChunk, out_chunk: DataChunk,
                 targets) -> None:
        """End-of-service custody transfer for the input chunk.

        With retaining output writers the input ack is *deferred* until the
        derived output leaves this node's custody (processed downstream, or
        flushed to disk) — otherwise a crash after emit but before the
        downstream pull would lose the timestep from both buffers.  Disk
        emissions and non-retaining writers ack immediately, as before.
        """
        retainers = [
            self.writers[link.name] for link in targets
            if link.name in self.writers
            and self.writers[link.name].retain_until_processed
        ]
        if not retainers:
            self._ack_sources(in_chunk)
            return
        pending = {writer.name for writer in retainers}

        def released(writer_name):
            pending.discard(writer_name)
            if not pending:
                self._ack_sources(in_chunk)

        for writer in retainers:
            writer.defer_parent_ack(
                out_chunk.chunk_id, lambda name=writer.name: released(name)
            )

    def _ack_sources(self, chunk: DataChunk) -> None:
        """Tell retaining upstream writers the chunk is fully processed.

        Bookkeeping is synchronous (custody must not depend on a lossy ack
        message); the wire cost is charged as fire-and-forget control
        traffic, like the pull-done notification it mirrors.
        """
        link = self.container.input_link
        if link is None or not chunk.sources:
            return
        for writer_name, chunk_id in chunk.sources:
            try:
                writer = link.writer_by_name(writer_name)
            except SimulationError:
                continue  # writer torn down in the meantime
            if not writer.retain_until_processed:
                continue
            self.messenger.network.transfer(self.node, writer.node, PULL_DONE_BYTES)
            writer.on_processed(chunk_id)

    # -- teardown ----------------------------------------------------------------

    def drain_queue(self) -> List[DataChunk]:
        """Remove and return unprocessed chunks (for re-dispatch on retire)."""
        if self.passive:
            return []
        items, self.queue.items = list(self.queue.items), []
        # Include partially gathered fragments so no timestep is lost.
        for fragments in self._gather.values():
            items.extend(fragments)
        self._gather.clear()
        return items

    def crash(self) -> None:
        """Violent death (the host node crashed).

        Everything resident dies instantly: the worker, the chunk in
        service, the reader loop.  Nothing is drained — recovery rebuilds
        from upstream custody (retained writer buffers) instead.  The
        reader's endpoint stays registered; a dead node still has an
        address, it just drops traffic until REPLACE cleans it off the
        link.
        """
        self.crashed = True
        self.retire(hard=True)
        if self.reader is not None:
            self.reader.crash()

    def retire(self, hard: bool = False) -> None:
        """Stop the worker (reader teardown is the link's job).

        ``hard=True`` (the offline path) also aborts the chunk currently in
        service, wherever it waits (compute, hash or emit); the caller is
        responsible for stranding ``current_chunk`` to disk.  A graceful
        retire lets in-flight service finish, emit and hand off; the worker
        ends after it, and is interrupted only while it waits for a chunk.
        """
        self.retired = True
        if self._worker is not None and self._worker.is_alive and (hard or not self._serving):
            self._worker.interrupt("retire-hard" if hard else "retire")

    def __repr__(self) -> str:
        kind = "passive" if self.passive else f"q={self.queue.size}"
        return f"<Replica {self.name} node={self.node.node_id} {kind}>"
