"""The disk paths with a process per operation, frozen for differential
testing.

Before the parallel file system placed one completion per operation at a
computed instant, every write and read was a process that waited out the
metadata latency, queued on a :class:`~repro.simkernel.Resource` of
``STRIPES`` streams and held a stream for ``nbytes / STREAM_BANDWIDTH``;
the spill store's segment write and read were processes around them.  The
constructor (which builds the stream ``Resource``) and the eight methods
are kept here verbatim.  Each takes the live object as ``self``, so
:data:`PATCHES` can put them back onto
:class:`~repro.adios.filesystem.ParallelFileSystem` and
:class:`~repro.adios.spill.SpillStore`.  Running each operation, the fig7
preset and the failover preset both ways and comparing completion times,
file records, byte counters, segments and raised errors pins the scheduled
completions to these semantics.

``tests/test_adios.py::TestDiskDifferential`` drives it; nothing in
production calls it.  Do not modify this file when changing the disk
paths — it is the baseline.
"""

from __future__ import annotations

from repro.adios.filesystem import (
    METADATA_LATENCY,
    STREAM_BANDWIDTH,
    STRIPES,
    FileRecord,
    ParallelFileSystem,
)
from repro.adios.spill import Segment, SpillStore
from repro.simkernel import Resource


def __init__(self, env):
    self.env = env
    self._streams = Resource(env, capacity=STRIPES)
    self.files = []
    #: monitoring
    self.bytes_written = 0.0
    self.bytes_read = 0.0


def write(self, node, name, nbytes, attributes=None):
    """Process: write ``nbytes`` from ``node``; fires with the record."""
    return self.env.process(
        self._write(node, name, nbytes, attributes), name=("pfs:{}", name)
    )


def _write(self, node, name, nbytes, attributes):
    if nbytes < 0:
        raise ValueError(f"negative write size {nbytes}")
    yield self.env.timeout(METADATA_LATENCY)
    stream = self._streams.request()
    yield stream
    try:
        yield self.env.timeout(nbytes / STREAM_BANDWIDTH)
    finally:
        self._streams.release(stream)
    record = FileRecord(
        name=name,
        nbytes=nbytes,
        written_at=self.env.now,
        writer_node=node.node_id,
        attributes=dict(attributes or {}),
    )
    self.files.append(record)
    self.bytes_written += nbytes
    return record


def read(self, node, name):
    """Process: read the most recent file named ``name`` back to ``node``."""
    return self.env.process(self._read(node, name), name=("pfs-read:{}", name))


def _read(self, node, name):
    matches = self.find(name)
    if not matches:
        raise FileNotFoundError(f"no file named {name!r} on this file system")
    record = matches[-1]
    yield self.env.timeout(METADATA_LATENCY)
    stream = self._streams.request()
    yield stream
    try:
        yield self.env.timeout(record.nbytes / STREAM_BANDWIDTH)
    finally:
        self._streams.release(stream)
    self.bytes_read += record.nbytes
    return record


def write_segment(self, node, record):
    """Process: persist ``record`` as a segment; fires when durable."""
    return self.env.process(
        self._write_segment(node, record),
        name=("spill-write:{}", record.seq),
    )


def _write_segment(self, node, record):
    self.writes_started += 1
    name = self.segment_name(record)
    yield self.fs.write(
        node,
        name,
        record.nbytes,
        attributes={
            "digest": record.digest,
            "reason": record.reason,
            "stage": record.stage,
            "timestep": record.timestep,
            "seq": record.seq,
            "spilled_at": record.time,
        },
    )
    segment = Segment(
        seq=record.seq,
        name=name,
        digest=record.digest,
        nbytes=record.nbytes,
        durable_at=self.env.now,
    )
    self.segments.append(segment)
    event = self.durable(record.seq)
    if not event.triggered:
        event.succeed(segment)
    return segment


def read_segment(self, node, record):
    """Process: read ``record``'s segment back (waits for durability)."""
    return self.env.process(
        self._read_segment(node, record),
        name=("spill-read:{}", record.seq),
    )


def _read_segment(self, node, record):
    event = self.durable(record.seq)
    if not event.triggered:
        yield event
    file_record = yield self.fs.read(node, self.segment_name(record))
    if file_record.attributes.get("digest") != record.digest:
        raise ValueError(
            f"digest mismatch reading spill seq {record.seq}: "
            f"{file_record.attributes.get('digest')} != {record.digest}"
        )
    return file_record


#: ``(class, attribute, function)`` for the file system and the spill store.
PATCHES = (
    (ParallelFileSystem, "__init__", __init__),
    (ParallelFileSystem, "write", write),
    (ParallelFileSystem, "_write", _write),
    (ParallelFileSystem, "read", read),
    (ParallelFileSystem, "_read", _read),
    (SpillStore, "write_segment", write_segment),
    (SpillStore, "_write_segment", _write_segment),
    (SpillStore, "read_segment", read_segment),
    (SpillStore, "_read_segment", _read_segment),
)
