"""Structured per-round traces of control-plane protocol executions.

Every protocol the :class:`~repro.controlplane.engine.ControlPlaneEngine`
runs produces one :class:`ProtocolTrace` — an ordered list of
:class:`RoundTrace` records carrying the round's status (ok / skipped /
timeout), its simulated duration, the detail labels it emitted, and the
cost categories it charged.  The trace is the machine-readable twin of the
human-oriented :class:`~repro.containers.protocol.ProtocolCost` rounds
list: the figure runners aggregate it into round-count/latency breakdowns, and every
finished execution is mirrored into :data:`repro.perf.REGISTRY` (counts
plus simulated-seconds durations, the same convention as the
``faults.mttr_detected`` metric) so protocol activity appears in
registry snapshots without extra plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.perf.registry import REGISTRY, PerfRegistry


@dataclass
class RoundTrace:
    """One executed (or skipped) round of a protocol."""

    name: str
    started_at: float
    finished_at: float = 0.0
    #: ok | skipped | timeout
    status: str = "ok"
    #: detail labels emitted while the round ran (the Fig 3 round strings)
    labels: List[str] = field(default_factory=list)
    #: simulated seconds charged per cost category during this round
    charged: Dict[str, float] = field(default_factory=dict)
    #: messages charged during this round
    messages: int = 0

    @property
    def seconds(self) -> float:
        return self.finished_at - self.started_at

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "seconds": self.seconds,
            "labels": list(self.labels),
            "charged": dict(self.charged),
            "messages": self.messages,
        }


@dataclass
class ProtocolTrace:
    """One protocol execution: the engine's structured audit record."""

    protocol: str
    subject: str
    started_at: float
    finished_at: float = 0.0
    #: running | committed | aborted | failed
    status: str = "running"
    abort_reason: Optional[str] = None
    rounds: List[RoundTrace] = field(default_factory=list)
    #: names of rounds whose compensation ran during an abort unwind
    compensated: List[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.finished_at - self.started_at

    @property
    def round_count(self) -> int:
        """Rounds that actually executed (skipped rounds excluded)."""
        return sum(1 for r in self.rounds if r.status != "skipped")

    @property
    def messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    def begin_round(self, name: str, now: float) -> RoundTrace:
        rt = RoundTrace(name=name, started_at=now)
        self.rounds.append(rt)
        return rt

    def audit(self) -> List[str]:
        """Structural well-formedness problems of a *finished* trace.

        The contract every engine-run protocol must satisfy (the DST
        trace-well-formedness oracle): rounds execute in order with
        non-negative, non-overlapping durations; a committed trace carries
        no abort reason and no compensation; an aborted trace names its
        reason and compensated *completed* rounds in reverse execution
        order.  Returns a list of human-readable problems (empty = clean).
        """
        problems: List[str] = []
        head = f"{self.protocol}[{self.subject}]"
        executed: List[str] = []
        clock = self.started_at
        for rnd in self.rounds:
            if rnd.finished_at < rnd.started_at:
                problems.append(
                    f"{head}: round {rnd.name!r} finished before it started"
                )
            if rnd.started_at < clock - 1e-9:
                problems.append(
                    f"{head}: round {rnd.name!r} started before its predecessor finished"
                )
            clock = max(clock, rnd.finished_at)
            if rnd.status not in ("ok", "skipped", "timeout"):
                problems.append(
                    f"{head}: round {rnd.name!r} has unknown status {rnd.status!r}"
                )
            if rnd.status != "skipped":
                executed.append(rnd.name)
        if self.status == "committed":
            if self.abort_reason is not None:
                problems.append(f"{head}: committed with abort reason {self.abort_reason!r}")
            if self.compensated:
                problems.append(f"{head}: committed but compensated {self.compensated}")
        elif self.status == "aborted":
            if self.abort_reason is None:
                problems.append(f"{head}: aborted without a reason")
            # Compensations must replay completed rounds backwards: the
            # compensated list, reversed, must be a subsequence of the
            # executed-round order (every unwound round ran, and the unwind
            # never jumps forward).
            it = iter(executed)
            for name in reversed(self.compensated):
                if not any(r == name for r in it):
                    problems.append(
                        f"{head}: compensation order {self.compensated} does not "
                        f"reverse executed rounds {executed}"
                    )
                    break
        elif self.status == "running":
            problems.append(f"{head}: trace never finished")
        return problems

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "subject": self.subject,
            "status": self.status,
            "abort_reason": self.abort_reason,
            "total_seconds": self.total,
            "round_count": self.round_count,
            "messages": self.messages,
            "compensated": list(self.compensated),
            "rounds": [r.as_dict() for r in self.rounds],
        }


class ControlPlaneTrace:
    """Accumulates :class:`ProtocolTrace` records and mirrors them to perf.

    One instance per pipeline (or per transaction manager); the module
    default :data:`CONTROL_TRACE` serves engines constructed without one.
    """

    def __init__(self, registry: Optional[PerfRegistry] = None,
                 prefix: str = "controlplane"):
        self.registry = REGISTRY if registry is None else registry
        self.prefix = prefix
        self.records: List[ProtocolTrace] = []

    def begin(self, protocol: str, subject: str, now: float) -> ProtocolTrace:
        trace = ProtocolTrace(protocol=protocol, subject=subject, started_at=now)
        self.records.append(trace)
        return trace

    def finish(self, trace: ProtocolTrace, now: float, status: str) -> None:
        if trace.status != "running":
            return  # already finished (double abort/failure path)
        trace.finished_at = now
        trace.status = status
        key = f"{self.prefix}.{trace.protocol}"
        reg = self.registry
        reg.count(f"{key}.runs")
        reg.count(f"{key}.rounds", trace.round_count)
        # Simulated protocol latency, sharing the duration schema wall-clock
        # timers use (the faults.mttr_detected convention).
        reg.record_duration(f"{key}.sim_seconds", trace.total)
        if status == "aborted":
            reg.count(f"{key}.aborts")
        elif status == "failed":
            reg.count(f"{key}.failures")

    def of(self, protocol: str) -> List[ProtocolTrace]:
        return [t for t in self.records if t.protocol == protocol]

    def last(self) -> Optional[ProtocolTrace]:
        return self.records[-1] if self.records else None


#: Default trace sink for engines constructed without an explicit one.
CONTROL_TRACE = ControlPlaneTrace()
