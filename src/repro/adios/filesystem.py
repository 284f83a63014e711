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
from typing import Any, Callable, Dict, List, Optional

from repro.simkernel import Environment, Event, bare_event
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
    """Shared storage with striped bandwidth and metadata latency.

    Every write and read schedules one completion.  An operation called
    at ``t`` takes the stream that frees first: it starts at
    ``max(t + METADATA_LATENCY, free_at)`` and ends ``nbytes /
    STREAM_BANDWIDTH`` later.  That is the grant a FIFO queue over
    identical streams gives when each service time is known at arrival and
    no operation is ever withdrawn.  At the end the operation lands (the
    record is filed, the byte counter moves) whether or not anyone waits
    on the returned event.
    """

    def __init__(self, env: Environment):
        self.env = env
        #: the instant each of the :data:`STRIPES` streams next frees
        self._free_at = [0.0] * STRIPES
        self.files: List[FileRecord] = []
        #: monitoring
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def _stream(self, nbytes: float, land: Callable[[], Any]) -> Event:
        """Hold the stream that frees first for ``nbytes``; at the end, run
        ``land`` and fire the returned event with its value."""
        env = self.env
        free_at = self._free_at
        stream = free_at.index(min(free_at))
        start = max(env.now + METADATA_LATENCY, free_at[stream])
        end = free_at[stream] = start + nbytes / STREAM_BANDWIDTH
        done = Event(env)
        env.schedule_at(bare_event(env, lambda _event: done.succeed(land())), end)
        return done

    def write(self, node: Node, name: str, nbytes: float,
              attributes: Optional[Dict[str, Any]] = None) -> Event:
        """Write ``nbytes`` from ``node``; the event fires with the record.

        A negative size fails the event with :class:`ValueError`.
        """
        if nbytes < 0:
            return Event(self.env).fail(ValueError(f"negative write size {nbytes}"))

        def land():
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

        return self._stream(nbytes, land)

    def write_chunk(self, node: Node, prefix: str, chunk, **flags) -> Event:
        """Write one timestep's chunk as ``<prefix>.tsNNNNNN.bp``.

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

    def read(self, node: Node, name: str) -> Event:
        """Read the most recent file named ``name`` back to ``node``.

        Reads pay the same striped-bandwidth and metadata costs as writes
        (the replay path's catch-up latency is dominated by this).  The
        event fires with the :class:`FileRecord` read, or fails with
        :class:`FileNotFoundError` when no such file exists.
        """
        matches = self.find(name)
        if not matches:
            return Event(self.env).fail(
                FileNotFoundError(f"no file named {name!r} on this file system"))
        record = matches[-1]

        def land():
            self.bytes_read += record.nbytes
            return record

        return self._stream(record.nbytes, land)

    def find(self, name: str) -> List[FileRecord]:
        return [f for f in self.files if f.name == name]
