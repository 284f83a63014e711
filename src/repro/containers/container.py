"""The container: a managed execution environment for one component."""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

from repro.simkernel import Environment, Event
from repro.simkernel.errors import SimulationError
from repro.cluster.node import Node
from repro.data import DataChunk
from repro.datatap.link import DataTapLink
from repro.datatap.scheduling import NoPullScheduler, PullScheduler
from repro.evpath.channel import Messenger
from repro.fate import FateLedger
from repro.adios.filesystem import ParallelFileSystem
from repro.monitoring.metrics import LatencyWindow
from repro.smartpointer.component import ComponentSpec
from repro.smartpointer.costs import ComputeModel


class Container:
    """Replicas + links + accounting for one analysis component.

    The container itself is mechanism, not policy: it can grow, shrink, go
    offline, and report metrics; *when* to do those things is decided by the
    managers (see :mod:`repro.containers.local_manager` and
    :mod:`repro.containers.global_manager`).
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        spec: ComponentSpec,
        model: ComputeModel,
        input_link: Optional[DataTapLink],
        *,
        pull_scheduler: PullScheduler | NoPullScheduler,
        fates: FateLedger,
        name: Optional[str] = None,
        output_links: Sequence[DataTapLink] = (),
        queue_capacity: int = 8,
        gather_count: int = 1,
        sink_fs: Optional[ParallelFileSystem] = None,
        active: bool = True,
        natoms_hint: int = 0,
        writer_buffer_bytes: Optional[float] = None,
        sla_factor: float = 1.0,
        retain_output: bool = False,
    ):
        if model not in spec.compute_models:
            raise SimulationError(
                f"component {spec.name!r} does not support compute model {model}"
            )
        if gather_count > 1 and model is not ComputeModel.TREE:
            raise SimulationError("gathering requires the TREE compute model")
        self.env = env
        self.messenger = messenger
        self.spec = spec
        self.model = model
        self.name = name or spec.name
        self.input_link = input_link
        #: every downstream consumer stage reads through its own link, so
        #: multiple consumers (e.g. CSym plus an interactively launched viz)
        #: each see the full output stream rather than splitting it.
        self.output_links: List[DataTapLink] = list(output_links)
        self.queue_capacity = queue_capacity
        self.gather_count = gather_count
        self.pull_scheduler = pull_scheduler
        self.sink_fs = sink_fs
        self.active = active
        self.natoms_hint = natoms_hint
        self.essential = spec.essential
        #: cap on each replica writer's staging buffer (None = node default)
        self.writer_buffer_bytes = writer_buffer_bytes
        #: fault-tolerance: this stage's writers keep custody of chunks
        #: until the downstream consumer acks them processed, enabling
        #: redelivery after a consumer crash (see repro.faults)
        self.retain_output = retain_output
        if sla_factor <= 0:
            raise ValueError("sla_factor must be positive")
        #: per-container SLA scale (Section III-A: a checkpointing container
        #: "need not complete ... until the next timestep arrives" — factor
        #: 1.0 — whereas crack discovery "should complete with low latency"
        #: — factor < 1).  Managers size and alarm against
        #: ``sla_interval * sla_factor``.
        self.sla_factor = sla_factor

        from repro.containers.replica import Replica  # circular at import time

        self._replica_cls = Replica
        self.replicas: List = []
        #: nodes held by a standby (not yet activated) container
        self.standby_nodes: List[Node] = []
        self._next_replica = 0
        self.offline = False
        #: TREE and PARALLEL components are one logical entity: data enters
        #: and leaves through the head node; member nodes only add capacity.
        self.head_only_io = model in (ComputeModel.TREE, ComputeModel.PARALLEL)

        #: process every k-th timestep; the rest are skipped (the paper's
        #: "lower the output frequency of one [container] to free up I/O
        #: bandwidth for others")
        self.stride = 1
        #: attach content hashes to emitted chunks for soft-error detection
        #: (the paper's "add hashes of the data to the output")
        self.hashing = False
        self.skipped = 0
        #: the pipeline's fate ledger
        self.fates = fates
        self.latency = LatencyWindow(maxlen=8)
        self.completions = 0
        #: called after each completed chunk: f(container, in_chunk, out_chunk)
        self.on_complete: Optional[Callable] = None

    @property
    def output_link(self) -> Optional[DataTapLink]:
        """Primary (first) output link, for single-consumer pipelines."""
        return self.output_links[0] if self.output_links else None

    # -- sizing ------------------------------------------------------------------

    @property
    def units(self) -> int:
        """Allocated node count (= replica count for all current models)."""
        return len(self.replicas)

    def service_time(self, chunk: DataChunk) -> float:
        natoms = chunk.natoms or self.natoms_hint
        units = max(1, self.units)
        return self.spec.cost.service_time(natoms, units, self.model)

    # -- replica lifecycle ----------------------------------------------------------

    def add_replica(self, node: Node):
        # Head-only-I/O components have exactly one active head; a newcomer
        # is passive unless no active head exists (e.g. the head crashed and
        # this replica is its replacement).
        passive = self.head_only_io and any(not r.passive for r in self.replicas)
        replica = self._replica_cls(
            self.env, self.messenger, node, self, self._next_replica, passive=passive
        )
        self._next_replica += 1
        self.replicas.append(replica)
        return replica

    def attach_output_link(self, link) -> None:
        """Add a downstream consumer link mid-run.

        Used when a new consumer (e.g. an interactively launched
        visualization container) starts reading this stage's output: the
        active replicas get DataTap writers wired into the new link, and
        subsequent emissions stream a copy through it.
        """
        from repro.datatap.writer import DataTapWriter

        if any(l.name == link.name for l in self.output_links):
            raise SimulationError(
                f"container {self.name!r} already feeds link {link.name!r}"
            )
        self.output_links.append(link)
        for replica in self.replicas:
            if replica.passive:
                continue
            writer = DataTapWriter(
                self.env, self.messenger, replica.node,
                buffer=self._make_buffer(replica.node, link.name),
                name=f"{replica.name}.w.{link.name}",
                retain_until_processed=self.retain_output,
            )
            replica.writers[link.name] = writer
            link.add_writer(writer)

    def _make_buffer(self, node, label: str):
        """Writer buffer honoring the configured capacity cap, if any."""
        if self.writer_buffer_bytes is None:
            return None
        from repro.datatap.buffer import StagingBuffer

        return StagingBuffer(
            self.env, node, capacity_bytes=self.writer_buffer_bytes,
            name=f"{self.name}.{label}.buf",
        )

    def remove_replicas(self, count: int, allow_teardown: bool = False) -> List[Node]:
        """Tear down ``count`` replicas; upstream writers must be paused.

        Unprocessed queue contents are re-dispatched to surviving replicas
        so no timestep is lost.  Returns the freed nodes.

        ``allow_teardown`` permits removing *every* replica of a TREE /
        PARALLEL component — only the MPI relaunch path (which immediately
        respawns at a larger size) and the offline protocol may do that.
        """
        if count <= 0 or count > len(self.replicas):
            raise SimulationError(
                f"container {self.name!r}: cannot remove {count} of {len(self.replicas)}"
            )
        if self.head_only_io and count >= len(self.replicas) and not allow_teardown:
            raise SimulationError(
                f"container {self.name!r}: decreasing a {self.model.value} component "
                f"to zero requires the offline protocol"
            )
        departing = self.replicas[-count:]
        self.replicas = self.replicas[: len(self.replicas) - count]
        freed: List[Node] = []
        stranded: List[DataChunk] = []
        for replica in departing:
            if self.input_link is not None and replica.reader is not None:
                self.input_link.remove_reader(replica.reader)
            stranded.extend(replica.drain_queue())
            replica.retire()
            freed.append(replica.node)
        if stranded:
            if not self.replicas:
                raise SimulationError(
                    f"container {self.name!r}: teardown strands {len(stranded)} chunks"
                )
            for i, chunk in enumerate(stranded):
                target = self.replicas[i % len(self.replicas)]
                # Local staging-area move: pay a transfer, then enqueue.
                self.env.process(
                    self._redispatch(chunk, departing[0].node, target),
                    name=f"redispatch:{self.name}",
                )
        return freed

    def _redispatch(self, chunk: DataChunk, from_node: Node, target) -> None:
        yield self.messenger.network.transfer(from_node, target.node, chunk.nbytes)
        yield target.queue.put(chunk)

    # -- data plane --------------------------------------------------------------------

    def emit(self, chunk: DataChunk, replica) -> Event:
        """Forward a processed chunk downstream; returns the event to wait on.

        Every output link with live readers receives the chunk (each
        consumer stage sees the full stream), and the event fires once every
        write is buffered; if no consumer is reachable, the chunk goes to
        disk with provenance instead.
        """
        chunk.entered_stage_at = self.env.now
        targets = [link for link in self.output_links if link.readers]
        if not targets:
            if self.sink_fs is None:
                return self.env.timeout(0)
            return self.sink_fs.write_chunk(
                replica.node, self.name, chunk,
                incomplete_pipeline=self.output_link is not None,
            )
        writes = []
        for i, link in enumerate(targets):
            # Fan-out: every link past the first gets its own copy (same
            # chunk_id — custody and dedup are per-link).  Readers mutate
            # per-consumer state on the chunk (``sources``,
            # ``entered_stage_at``); sharing one object across links lets
            # one consumer's pull clobber another's custody trail, which
            # ends in a wrong-writer ack and a redelivery duplicate.
            out = chunk if i == 0 else dataclasses.replace(chunk, sources=[])
            writes.append(replica.writers[link.name].write(out))
        return self.env.all_of(writes)

    def offline_downstream(self) -> bool:
        """True when no downstream link has readers (pruned pipeline)."""
        return bool(self.output_links) and not any(
            link.readers for link in self.output_links
        )

    def record_completion(self, in_chunk: DataChunk, out_chunk: DataChunk,
                          latency: float, replica) -> None:
        self.latency.observe(self.env.now, latency)
        self.completions += 1
        if self.on_complete is not None:
            self.on_complete(self, in_chunk, out_chunk)

    # -- metrics -------------------------------------------------------------------------

    @property
    def total_queued(self) -> int:
        queued = sum(r.queue.size for r in self.replicas if not r.passive)
        if self.input_link is not None:
            # Metadata waiting at reader endpoints counts as queued input.
            queued += sum(
                r.reader.endpoint.pending for r in self.replicas if r.reader is not None
            )
        return queued

    def upstream_buffer_occupancy(self) -> float:
        """Max occupancy fraction across upstream writer buffers."""
        if self.input_link is None or not self.input_link.writers:
            return 0.0
        return max(w.buffer.occupancy for w in self.input_link.writers)

    def oldest_input_entry(self) -> Optional[float]:
        """Earliest stage-entry time among unfinished inputs.

        Scans replica queues, gather buffers, in-service chunks, and chunks
        parked in upstream writer buffers.  ``now - oldest_input_entry()`` is
        a live latency estimate for stages that have not completed anything
        yet — essential for spotting a bottleneck whose service time exceeds
        the monitoring period.
        """
        oldest: Optional[float] = None

        def consider(value: Optional[float]):
            nonlocal oldest
            if value is not None and (oldest is None or value < oldest):
                oldest = value

        for replica in self.replicas:
            if replica.passive:
                continue
            for chunk in replica.queue.items:
                consider(chunk.entered_stage_at)
            for fragments in replica._gather.values():
                for chunk in fragments:
                    consider(chunk.entered_stage_at)
            if replica.current_chunk is not None:
                consider(replica.current_chunk.entered_stage_at)
        if self.input_link is not None:
            for writer in self.input_link.writers:
                for chunk in writer.buffer._chunks.values():
                    consider(chunk.entered_stage_at)
        return oldest

    def latency_estimate(self, mean: Optional[float]) -> Optional[float]:
        """Best available latency figure: the completed ``mean`` (this
        container's ``latency.mean()``) or the live input age."""
        oldest = self.oldest_input_entry()
        age = None if oldest is None else self.env.now - oldest
        if mean is None:
            return age
        if age is None:
            return mean
        return max(mean, age)

    def __repr__(self) -> str:
        state = "offline" if self.offline else ("active" if self.active else "standby")
        return f"<Container {self.name!r} {state} units={self.units}>"
