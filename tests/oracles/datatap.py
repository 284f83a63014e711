"""The per-chunk DataTap processes, frozen for differential testing.

Before the per-chunk data path became callback walkers, every chunk hop
started about eight processes: a ``dtwrite`` process per write and a
``buf-insert`` process inside it, a ``meta`` process per metadata push, a
child ``pull`` process per metadata message a reader took, a ``pull-admit``
process per pull, a ``compute@`` process per service and per hash, and a
process around each emit.  The generators they ran are kept here verbatim.
Each takes the live object as ``self``, so :data:`PATCHES` can put them
back onto the classes; running one seeded chunk pattern both ways and
comparing per-chunk outcomes (pull-complete and buffer-release times, queue
order, cancelled metadata, swallowed faults, dropped duplicates) pins the
walkers to these semantics.

``tests/test_datatap.py::TestChunkPathOutcomes`` drives it; nothing in
production calls it.  Do not modify this file when optimizing the data
path — it is the baseline.  (It carries one mend the walkers also have: a
reader stopped while its pull admission is pending withdraws it through
:meth:`PullScheduler.withdraw`, so the slot is not leaked.)
"""

from __future__ import annotations

import dataclasses

from repro.cluster.node import Node
from repro.containers.container import Container
from repro.datatap.reader import DataTapReader, PULL_DONE_BYTES
from repro.datatap.scheduling import PullScheduler
from repro.datatap.writer import DataTapWriter, METADATA_BYTES
from repro.evpath.messages import Message, MessageType
from repro.perf.registry import REGISTRY
from repro.simkernel import Event, Interrupt
from repro.simkernel.errors import SimulationError


# -- DataTapWriter / StagingBuffer ---------------------------------------------


def write(self, chunk):
    """Asynchronous write; the event fires once the chunk is buffered."""
    return self.env.process(_write(self, chunk), name=("dtwrite:{}", self.name))


def _write(self, chunk):
    if self.link is None:
        raise SimulationError(f"writer {self.name!r} is not attached to a link")
    yield insert(self.buffer, chunk)
    self.chunks_written += 1
    self._chunk_seq[chunk.chunk_id] = self._next_seq
    self._next_seq += 1
    if self._paused:
        self._pending_meta.append(chunk)
    else:
        self._dispatch_metadata(chunk)
    return chunk


def insert(self, chunk):
    """Blocking insert: returns a process event that fires once stored."""
    return self.env.process(_insert(self, chunk), name=("buf-insert:{}", self.name))


def _insert(self, chunk):
    while not self.try_insert(chunk):
        waiter = Event(self.env)
        self._space_waiters.append(waiter)
        yield waiter
    return chunk


def spawn_metadata_push(self, chunk) -> None:
    """Fire-and-forget metadata push; the writer does not wait."""
    self.env.process(_push_metadata(self, chunk), name=("meta:{}", self.name))


def _push_metadata(self, chunk):
    reader_name = self.link.next_reader_for(self)
    self._assigned[chunk.chunk_id] = reader_name
    self._inflight_meta += 1
    try:
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
        yield self.messenger.send(self.node, reader_name, meta)
    finally:
        self._inflight_meta -= 1
        if self._inflight_meta == 0 and self._drained is not None:
            self._drained.succeed()
            self._drained = None


# -- PullScheduler ---------------------------------------------------------------


def admit(self):
    """Process: wait for a pull slot; returns the token request."""
    return self.env.process(_admit(self), name="pull-admit")


def _admit(self):
    start = self.env.now
    request = None
    try:
        while self.defer_during_output and self._phase_clear is not None:
            yield self._phase_clear
        request = self._tokens.request()
        yield request
    except Interrupt:
        # withdrawn: leave the queue, or give back a slot just granted
        if request is not None:
            request.cancel()
        return None
    self.pulls_admitted += 1
    wait = self.env.now - start
    self.total_wait += wait
    REGISTRY.count("datatap.pulls_admitted")
    REGISTRY.record_duration("datatap.pull_admit_wait", wait)
    return request


# -- DataTapReader -----------------------------------------------------------------


def reader_run(self):
    """The reader loop, one child ``pull`` process per metadata message."""
    while True:
        try:
            meta = yield self.endpoint.recv(MessageType.DATA_METADATA)
        except Interrupt:
            return
        self._inflight += 1
        self._current_meta = meta
        self._pull_proc = self.env.process(_pull(self, meta), name=("pull:{}", self.name))
        try:
            yield self._pull_proc
        except Interrupt:
            # Teardown raced the pull: cancel it.  The chunk stays in the
            # writer's buffer; stop() hands the metadata back to the link.
            if self._pull_proc.is_alive:
                self._pull_proc.interrupt("teardown")
            return
        finally:
            self._current_meta = None
            self._inflight -= 1
            if self._inflight == 0 and self._drained is not None:
                self._drained.succeed()
                self._drained = None


def _pull(self, meta):
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
        if admission is not None:
            self.scheduler.withdraw(admission)
        self.out_queue.cancel_reservation(res_event)
        self.cancelled_meta.append(meta)
        return
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


# -- Node ----------------------------------------------------------------------------


def compute(self, seconds, cores=1):
    """A process that occupies ``cores`` cores for ``seconds``."""
    if cores > self.num_cores:
        raise SimulationError(
            f"node {self.node_id}: requested {cores} cores, has {self.num_cores}"
        )
    return self.env.process(_compute(self, seconds, cores), name=("compute@{}", self.node_id))


def _compute(self, seconds, cores):
    requests = [self.cores.request() for _ in range(cores)]
    for req in requests:
        yield req
    try:
        yield self.env.timeout(seconds * self.slow_factor)
    finally:
        for req in requests:
            self.cores.release(req)


# -- Container -------------------------------------------------------------------------


def emit(self, chunk, replica):
    """The emit generator, run as the process ``Replica._service`` waited on
    (it yielded ``env.process(container.emit(out, replica))``)."""
    chunk.entered_stage_at = self.env.now
    targets = [link for link in self.output_links if link.readers]

    def links_gen():
        writes = []
        for i, link in enumerate(targets):
            out = chunk if i == 0 else dataclasses.replace(chunk, sources=[])
            writes.append(replica.writers[link.name].write(out))
        yield self.env.all_of(writes)

    def disk_gen():
        if self.sink_fs is None:
            yield self.env.timeout(0)
            return
        yield self.sink_fs.write_chunk(
            replica.node, self.name, chunk,
            incomplete_pipeline=self.output_link is not None,
        )

    return self.env.process(links_gen() if targets else disk_gen())


#: ``(class, attribute, generator-path stand-in)`` for every per-chunk hop.
PATCHES = (
    (DataTapWriter, "write", write),
    (DataTapWriter, "spawn_metadata_push", spawn_metadata_push),
    (PullScheduler, "admit", admit),
    (DataTapReader, "_run", reader_run),
    (Node, "compute", compute),
    (Container, "emit", emit),
)
