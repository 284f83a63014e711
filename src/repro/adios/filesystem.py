"""A simulated parallel file system (Lustre-style).

Writes consume one of :data:`STRIPES` concurrent server streams, each with
:data:`STREAM_BANDWIDTH`; metadata operations cost :data:`METADATA_LATENCY`.  This is
the first-order model of what the offline path pays when a pruned pipeline
writes raw data to storage instead of staging it.

The file system records everything written — name, size, and attributes — so
tests can assert that offline output carries the right provenance labels.
:meth:`ParallelFileSystem.write_chunk` is the one disk path for pipeline
chunks (the paper's ADIOS POSIX method).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.simkernel import Environment, Resource
from repro.cluster.node import Node

#: concurrent server streams (a write or read holds one)
STRIPES = 4
#: bytes per second one stream moves
STREAM_BANDWIDTH = 500 * 2**20
#: seconds of metadata work before every write or read
METADATA_LATENCY = 2e-3


@dataclass
class FileRecord:
    name: str
    nbytes: float
    written_at: float
    writer_node: int
    attributes: Dict[str, Any] = field(default_factory=dict)


class ParallelFileSystem:
    """Shared storage with striped bandwidth and metadata latency."""

    def __init__(self, env: Environment):
        self.env = env
        self._streams = Resource(env, capacity=STRIPES)
        self.files: List[FileRecord] = []
        #: monitoring
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def write(self, node: Node, name: str, nbytes: float,
              attributes: Optional[Dict[str, Any]] = None):
        """Process: write ``nbytes`` from ``node``; fires with the record."""
        return self.env.process(
            self._write(node, name, nbytes, attributes), name=("pfs:{}", name)
        )

    def _write(self, node: Node, name: str, nbytes: float, attributes):
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

    def write_chunk(self, node: Node, prefix: str, chunk, **flags):
        """Process: write one timestep's chunk as ``<prefix>.tsNNNNNN.bp``.

        The paper's POSIX method: the record's attributes carry the chunk's
        provenance and timestep (then ``flags``), so a post-processor knows
        which actions remain to be applied.
        """
        attributes = {
            "provenance": list(chunk.provenance),
            "timestep": chunk.timestep,
            **flags,
        }
        return self.write(
            node, f"{prefix}.ts{chunk.timestep:06d}.bp", chunk.nbytes, attributes
        )

    def read(self, node: Node, name: str):
        """Process: read the most recent file named ``name`` back to ``node``.

        Reads pay the same striped-bandwidth and metadata costs as writes
        (the replay path's catch-up latency is dominated by this).  Fires
        with the :class:`FileRecord` read.
        """
        return self.env.process(self._read(node, name), name=("pfs-read:{}", name))

    def _read(self, node: Node, name: str):
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

    def find(self, name: str) -> List[FileRecord]:
        return [f for f in self.files if f.name == name]
