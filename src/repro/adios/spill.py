"""Degrade-to-disk accounting: the spill view and the spill store.

The paper's only remedy for a failed or lagging consumer is to shed data
(stride skips, offline prunes).  The failover layer replaces that loss
with *latency*: a timestep that would have been shed is instead spilled —
the pipeline's :class:`~repro.fate.FateLedger` records it as a sequenced,
content-digested :class:`~repro.fate.SpillRecord`, and the
:class:`SpillStore` writes it to a simulated file store as a segment.  A
spilled timestep is owed eventual delivery via replay, never silently
dropped.  :class:`SpillLedger` is the read view over the spill records
(``pipe.spill_ledger``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fate import (
    SPILL_REASONS,
    SPILL_STATUSES,
    FateLedger,
    SpillRecord,
    segment_digest,
)
from repro.simkernel import Environment, Event
from repro.adios.filesystem import ParallelFileSystem

__all__ = [
    "SPILL_REASONS", "SPILL_STATUSES", "Segment", "SpillLedger", "SpillRecord",
    "SpillStore", "segment_digest",
]


class SpillLedger:
    """The spill records of a :class:`~repro.fate.FateLedger`."""

    def __init__(self, fates: FateLedger):
        self.fates = fates

    @property
    def records(self) -> List[SpillRecord]:
        return self.fates.spill_records

    def record(self, timestep, stage, reason, time, nbytes, chunk_id=None):
        """Spill through the ledger (see :meth:`FateLedger.spill`)."""
        return self.fates.spill(timestep, stage, reason, time, nbytes, chunk_id)

    def steps(self) -> set:
        """Timesteps with a spill record (any status)."""
        return {r.timestep for r in self.records}

    def record_for(self, timestep: int) -> Optional[SpillRecord]:
        return self.fates.spill_record(timestep)

    def pending(self) -> List[SpillRecord]:
        """Records still owed replay, in spill (seq) order."""
        return self.fates.pending()

    def replayed_steps(self) -> set:
        return {r.timestep for r in self.records if r.status == "replayed"}

    def by_reason(self) -> Dict[str, int]:
        return dict(Counter(r.reason for r in self.records))

    def by_status(self) -> Dict[str, int]:
        return dict(Counter(r.status for r in self.records))

    def as_dicts(self) -> List[dict]:
        return [r.as_dict() for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"<SpillLedger {len(self.records)} records "
            f"pending={len(self.pending())} suppressed={self.fates.suppressed}>"
        )


@dataclass
class Segment:
    """Bookkeeping for one durable spill segment."""

    seq: int
    name: str
    digest: str
    nbytes: float
    durable_at: float


class SpillStore:
    """Sequenced, content-digested segments on a dedicated file system.

    The spill path's durability: each spilled timestep becomes one ``.bp``
    segment whose name encodes (stage, timestep, seq) and whose attributes
    carry the digest and provenance.  Reads block until the segment is
    durable, so a replay racing an in-flight spill write waits instead of
    missing data.
    """

    def __init__(self, env: Environment):
        self.env = env
        #: a dedicated file system (not the sink's), sized like it
        self.fs = ParallelFileSystem(env)
        self.segments: List[Segment] = []
        self._durable: Dict[int, Event] = {}
        #: monitoring
        self.writes_started = 0

    @staticmethod
    def segment_name(record: SpillRecord) -> str:
        return (
            f"spill/{record.stage}/ts{record.timestep:06d}"
            f".seq{record.seq:06d}.bp"
        )

    def durable(self, seq: int) -> Event:
        """Event firing with the segment once spill ``seq`` is durable."""
        event = self._durable.get(seq)
        if event is None:
            event = Event(self.env)
            self._durable[seq] = event
        return event

    def write_segment(self, node, record: SpillRecord) -> Event:
        """Persist ``record`` as a segment; returns :meth:`durable` of its seq.

        The segment lands when the file system's write completes, whether
        or not anyone waits; a failed write fails the durability event.
        """
        self.writes_started += 1
        name = self.segment_name(record)
        durable = self.durable(record.seq)

        def land(write):
            if not write._ok:
                write.defuse()
                durable.fail(write._value)
                return
            segment = Segment(
                seq=record.seq,
                name=name,
                digest=record.digest,
                nbytes=record.nbytes,
                durable_at=self.env.now,
            )
            self.segments.append(segment)
            if not durable.triggered:
                durable.succeed(segment)

        self.fs.write(
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
        ).callbacks.append(land)
        return durable

    def read_segment(self, node, record: SpillRecord) -> Event:
        """Read ``record``'s segment back once it is durable.

        The event fires with the :class:`~repro.adios.filesystem.FileRecord`
        read, or fails with the durability or read error, or with
        :class:`ValueError` when the digest on disk is not the record's.
        """
        result = Event(self.env)

        def check(read):
            if not read._ok:
                # the failed step's error becomes the read's (caught, hence defused)
                read.defuse()
                result.fail(read._value)
            elif read._value.attributes.get("digest") != record.digest:
                result.fail(ValueError(
                    f"digest mismatch reading spill seq {record.seq}: "
                    f"{read._value.attributes.get('digest')} != {record.digest}"
                ))
            else:
                result.succeed(read._value)

        def start(durable):
            if durable._ok:
                self.fs.read(node, self.segment_name(record)).callbacks.append(check)
            else:
                check(durable)

        durable = self.durable(record.seq)
        if durable.triggered:
            start(durable)
        else:
            durable.callbacks.append(start)
        return result

    @property
    def durable_count(self) -> int:
        return len(self.segments)

    def __repr__(self) -> str:
        return f"<SpillStore {len(self.segments)} durable segments>"
