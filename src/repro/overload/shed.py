"""Accounted load shedding: the shed records of the pipeline's fate ledger.

When the pipeline must drop work — the driver raising its output stride
under backpressure, a container skipping timesteps under a brownout
stride, an offline prune flushing undeliverable buffers — the drop is not
silent: it becomes a :class:`ShedRecord` in the pipeline's
:class:`~repro.fate.FateLedger`, which decides whether the drop is a shed,
a spill, or already moot.  :class:`ShedLedger` is the read view over those
records (``pipe.shed_ledger``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.fate import SHED_REASONS, FateLedger, ShedRecord

__all__ = ["SHED_REASONS", "ShedLedger", "ShedRecord"]


class ShedLedger:
    """The shed records of a :class:`~repro.fate.FateLedger`."""

    def __init__(self, fates: FateLedger):
        self.fates = fates

    @property
    def records(self) -> List[ShedRecord]:
        return self.fates.shed_records

    def record(self, timestep, stage, reason, time, chunk_id=None) -> str:
        """Shed through the ledger (see :meth:`FateLedger.shed`)."""
        return self.fates.shed(timestep, stage, reason, time, chunk_id)

    def steps(self) -> Set[int]:
        """The set of shed timesteps."""
        return self.fates.shed_steps()

    def decisions(self) -> Dict[int, Set[Tuple[str, str]]]:
        """timestep -> distinct (stage, reason) decisions recorded for it;
        the ledger refuses a second one, so each set has one member."""
        out: Dict[int, Set[Tuple[str, str]]] = {}
        for rec in self.records:
            out.setdefault(rec.timestep, set()).add((rec.stage, rec.reason))
        return out

    def by_reason(self) -> Dict[str, int]:
        """Distinct shed timesteps per reason."""
        out: Dict[str, Set[int]] = {}
        for rec in self.records:
            out.setdefault(rec.reason, set()).add(rec.timestep)
        return {reason: len(steps) for reason, steps in sorted(out.items())}

    def shed_fraction(self, total_steps: int) -> float:
        return len(self.steps()) / total_steps if total_steps else 0.0

    def as_dicts(self) -> List[dict]:
        return [rec.as_dict() for rec in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"<ShedLedger {len(self.records)} records over {len(self.steps())} "
            f"timesteps ({self.fates.suppressed} suppressed)>"
        )
