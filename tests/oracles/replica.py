"""The replica worker with a service process per chunk, frozen for
differential testing.

Before a replica's worker ran each chunk's service inline, it started one
``_service`` process per chunk, waited on it and forwarded a hard retire's
interrupt to it.  The two generators are kept here verbatim.  Each takes
the live replica as ``self``, so :data:`PATCHES` can put them back onto
:class:`~repro.containers.replica.Replica`; the live ``retire``/``crash``
then interrupt this worker as they interrupted it before (it never sets
``_serving``).  Running a preset or a retire scenario both ways and
comparing exits, end-to-end records, shed records, telemetry, the node
census and swallowed faults pins the inline worker to these semantics.

It carries the defect the inline worker mends: a crash that lands after
the compute, while the service hashes or emits, interrupts a service
process that catches ``Interrupt`` only around the compute, and nobody
waits on it, so the ``Interrupt`` escapes ``env.run``.
``tests/mutants.py::service_process`` puts it back for the DST harness.

``tests/test_containers_runtime.py::TestInlineServiceOutcomes`` drives
it; nothing in production calls it.  Do not modify this file when
changing the worker — it is the baseline.
"""

from __future__ import annotations

from repro.containers.replica import Replica
from repro.simkernel import Interrupt


def _work(self):
    container = self.container
    while True:
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
        self._service_proc = self.env.process(self._service(chunk))
        try:
            yield self._service_proc
        except Interrupt as interrupt:
            if getattr(interrupt, "cause", None) == "retire-hard":
                if self._service_proc.is_alive:
                    self._service_proc.interrupt("retire-hard")
            return


def _service(self, chunk):
    start = self.env.now
    self.current_chunk = chunk
    service = self.container.service_time(chunk)
    try:
        yield self.node.compute(service)
    except Interrupt:
        # Hard retire mid-service: the caller strands ``current_chunk``.
        return
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


#: ``(class, attribute, generator)`` for the worker and its service.
PATCHES = (
    (Replica, "_work", _work),
    (Replica, "_service", _service),
)
