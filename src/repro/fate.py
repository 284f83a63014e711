"""Exactly one fate per timestep: the pipeline's :class:`FateLedger`.

The paper's offline action switches output to disk and marks provenance,
so no timestep's data vanishes without a record.  The reproduction's form
of that rule: every emitted timestep is delivered, shed, or spilled and
then replayed — exactly once.  One ledger per pipeline owns the rule.  It
is the only writer of fates, a per-timestep state machine::

    emitted ──deliver(sink)──▶ delivered        (once per sink)
       │
       ├──shed(stage, reason)──▶ shed            (terminal)
       │
       └──spill──▶ spilled ──deliver("replay")──▶ replayed
                      │
                      └──supersede (delivered live first)──▶ superseded

Rules the write sites used to repeat, now decided here:

* a shed or spill of an already-delivered timestep is suppressed and
  counted (an offline-teardown race can leave a delivered chunk in a
  writer buffer);
* a second spill of a spilled timestep is absorbed into its record — one
  segment per timestep is what replay re-delivers;
* several fragments of one (stage, reason) decision are one decision —
  each gets a record, none is a second fate;
* while the failover layer diverts sheds (``divert_sheds``), a shed
  becomes a spill instead.

Illegal transitions are refused where they happen and parked in
:attr:`FateLedger.violations` for the ``exactly_one_fate`` DST oracle,
as the fleet arbiter parks its audit failures.  Recording schedules no
simulation events, so a run that never sheds or spills is unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.perf.registry import REGISTRY

#: the legal shed reasons (a decision is a (stage, reason) pair)
SHED_REASONS = (
    "backpressure_stride",  # the LAMMPS driver skipped an output step
    "container_stride",     # a container's sampling stride skipped the step
    "offline_prune",        # an offline cascade flushed/stranded the chunk
)

#: the legal spill reasons: every shed reason (a diverted shed keeps its
#: reason), plus the two triggers that only exist once spilling does
SPILL_REASONS = SHED_REASONS + (
    "credit_collapse",   # a link's credit window collapsed with a backlog
    "consumer_crash",    # the consumer died and redelivery was not possible
)

#: lifecycle of a spill record: spilled -> replayed (delivered through the
#: replay sink) or superseded (delivered live before replay reached it)
SPILL_STATUSES = ("spilled", "replayed", "superseded")

#: the sink name of the failover layer's catch-up stream
REPLAY_SINK = "replay"

#: answers of :meth:`FateLedger.shed`
SHED, SPILLED, SUPPRESSED, REFUSED = "shed", "spilled", "suppressed", "refused"


def segment_digest(stage: str, timestep: int, reason: str, nbytes: float) -> str:
    """Deterministic content digest for a spilled segment.

    Hash of the segment's identity tuple, not of simulated payload bytes
    (there are none) — stable across runs, schedules, and machines, so
    replay-identity checks can compare digests byte-for-byte.
    """
    key = f"{stage}:{timestep}:{reason}:{int(nbytes)}"
    return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ShedRecord:
    """One shed decision applied to one timestep."""

    timestep: int
    #: the stage that took the decision ("lammps", "bonds", "csym", ...)
    stage: str
    #: one of :data:`SHED_REASONS`
    reason: str
    time: float
    #: the dropped chunk, when the decision hit a concrete chunk
    chunk_id: Optional[int] = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SpillRecord:
    """One spill decision: a timestep diverted to the file store.

    Mutable (unlike :class:`ShedRecord`) because a spill is not terminal —
    ``status`` advances to ``replayed`` or ``superseded`` when the
    catch-up stream settles the timestep's fate.
    """

    timestep: int
    stage: str
    reason: str
    time: float
    seq: int
    nbytes: float
    digest: str
    chunk_id: Optional[int] = None
    status: str = "spilled"
    #: simulation time the record left ``spilled`` (replay or supersede)
    settled_at: Optional[float] = None

    def as_dict(self) -> dict:
        return asdict(self)


Subscriber = Callable[[object, "FateLedger"], None]


class FateLedger:
    """The per-pipeline account of every timestep's fate."""

    def __init__(self, expected: int = 0):
        #: timesteps the producer emits (0..expected-1); set by the builder
        self.expected = expected
        self.shed_records: List[ShedRecord] = []
        #: spill records in spill order; ``seq`` is the index
        self.spill_records: List[SpillRecord] = []
        #: refused transitions, as problem strings
        self.violations: List[str] = []
        #: sheds and spills refused because the timestep was delivered
        self.suppressed = 0
        #: second spills folded into an existing record
        self.absorbed = 0
        #: whether sheds divert to the spill path, and the segment size a
        #: diverted timestep spills at; set by the failover layer
        self.divert_sheds = False
        self.spill_nbytes = 0.0
        #: ``fn(record, ledger)`` after every new shed / spill record, so
        #: live consumers see the deltas as they happen
        self.shed_subscribers: List[Subscriber] = []
        self.spill_subscribers: List[Subscriber] = []
        self._sinks: Dict[int, Set[str]] = {}
        self._shed: Dict[int, Tuple[str, str]] = {}
        self._spills: Dict[int, SpillRecord] = {}

    def _refuse(self, time: float, problem: str) -> None:
        self.violations.append(f"t={time}: {problem}")

    # -- transitions ------------------------------------------------------------------

    def deliver(self, sink: str, timestep: int, time: float) -> bool:
        """Account one exit through ``sink``; a ``replay`` delivery settles
        the timestep's spill.  False when the transition is illegal."""
        sinks = self._sinks.setdefault(timestep, set())
        if sink in sinks:
            self._refuse(time, f"timestep {timestep} delivered twice to sink {sink!r}")
            return False
        sinks.add(sink)
        if timestep in self._shed:
            self._refuse(
                time, f"timestep {timestep} delivered after shed {self._shed[timestep]}"
            )
            return False
        if sink == REPLAY_SINK:
            record = self._spills.get(timestep)
            if record is None or record.status != "spilled":
                self._refuse(time, f"replay of timestep {timestep} with no pending spill")
                return False
            self._settle(record.seq, "replayed", time)
            REGISTRY.count("failover.replayed")
        return True

    def shed(
        self,
        timestep: int,
        stage: str,
        reason: str,
        time: float,
        chunk_id: Optional[int] = None,
    ) -> str:
        """Account one shed decision; answers :data:`SHED`, :data:`SPILLED`
        (diverted), :data:`SUPPRESSED` (already delivered) or
        :data:`REFUSED` (a second fate, parked as a violation)."""
        if reason not in SHED_REASONS:
            raise ValueError(f"unknown shed reason {reason!r}; known: {SHED_REASONS}")
        if timestep in self._sinks:
            self.suppressed += 1
            REGISTRY.count("overload.shed_suppressed")
            return SUPPRESSED
        decision = self._shed.get(timestep)
        if decision is None and self.divert_sheds:
            self.spill(timestep, stage, reason, time, self.spill_nbytes, chunk_id)
            return SPILLED
        if timestep in self._spills:
            self._refuse(time, f"timestep {timestep} shed by {(stage, reason)} after a spill")
            return REFUSED
        if decision is not None and decision != (stage, reason):
            self._refuse(
                time,
                f"timestep {timestep} shed by {(stage, reason)} after {decision}",
            )
            return REFUSED
        record = ShedRecord(int(timestep), stage, reason, float(time), chunk_id)
        self.shed_records.append(record)
        self._shed[record.timestep] = (stage, reason)
        REGISTRY.count("overload.shed")
        for fn in self.shed_subscribers:
            fn(record, self)
        return SHED

    def spill(
        self,
        timestep: int,
        stage: str,
        reason: str,
        time: float,
        nbytes: float,
        chunk_id: Optional[int] = None,
    ) -> Optional[SpillRecord]:
        """Account one spill; returns the new record, or None when the
        timestep already has a fate (shed, delivered, or spilled)."""
        if reason not in SPILL_REASONS:
            raise ValueError(f"unknown spill reason {reason!r}; legal: {SPILL_REASONS}")
        if timestep in self._shed:
            return None  # the shed decision owns the timestep
        if timestep in self._sinks:
            self.suppressed += 1
            REGISTRY.count("failover.spill_suppressed")
            return None
        if timestep in self._spills:
            self.absorbed += 1
            REGISTRY.count("failover.spill_absorbed")
            return None
        record = SpillRecord(
            timestep=timestep,
            stage=stage,
            reason=reason,
            time=time,
            seq=len(self.spill_records),
            nbytes=float(nbytes),
            digest=segment_digest(stage, timestep, reason, nbytes),
            chunk_id=chunk_id,
        )
        self.spill_records.append(record)
        self._spills[timestep] = record
        REGISTRY.count("failover.spilled")
        for fn in self.spill_subscribers:
            fn(record, self)
        return record

    def supersede(self, seq: int, time: float) -> bool:
        """Settle spill ``seq`` whose timestep was delivered live first."""
        record = self.spill_records[seq] if 0 <= seq < len(self.spill_records) else None
        if record is not None and record.timestep not in self._sinks:
            self._refuse(
                time, f"spill seq {seq} superseded but timestep {record.timestep} never exited"
            )
            return False
        self._settle(seq, "superseded", time)
        REGISTRY.count("failover.superseded")
        return True

    def _settle(self, seq: int, status: str, time: float) -> None:
        if not 0 <= seq < len(self.spill_records):
            problem = f"settle of unknown spill seq {seq}"
        elif self.spill_records[seq].status != "spilled":
            problem = f"spill seq {seq} already settled as {self.spill_records[seq].status!r}"
        else:
            record = self.spill_records[seq]
            record.status = status
            record.settled_at = time
            return
        self._refuse(time, problem)
        raise ValueError(problem)

    # -- queries ----------------------------------------------------------------------

    def delivered(self, timestep: int) -> bool:
        return timestep in self._sinks

    def shed_steps(self) -> Set[int]:
        return set(self._shed)

    def spill_record(self, timestep: int) -> Optional[SpillRecord]:
        return self._spills.get(timestep)

    def pending(self) -> List[SpillRecord]:
        """Spill records still owed a replay, in seq order."""
        return [r for r in self.spill_records if r.status == "spilled"]

    def unfated(self) -> Set[int]:
        """Emitted timesteps still without a fate: not delivered, shed, or
        spilled."""
        return {
            step for step in range(self.expected)
            if step not in self._sinks and step not in self._shed
            and step not in self._spills
        }

    def __repr__(self) -> str:
        return (
            f"<FateLedger delivered={len(self._sinks)} shed={len(self._shed)} "
            f"spilled={len(self._spills)} violations={len(self.violations)}>"
        )
