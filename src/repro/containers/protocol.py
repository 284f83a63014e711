"""Control protocols: the message rounds of increase / decrease / offline.

Figure 3 of the paper sketches the *increase* protocol: the global manager
asks a container manager to grow; rounds of messages distribute end-point
contact information to the new replicas and notify the parties that actions
started or completed.  Figures 4 and 5 measure the resulting overheads and
find that (a) intra-container metadata exchange dominates increase cost and
grows with the number of new replicas, (b) manager-to-manager messages are
nearly negligible, and (c) decrease cost is dominated by waiting for the
upstream DataTap writers to pause.

:class:`ProtocolTracer` records every round with its wall-clock cost and
category (``manager`` vs ``intra_container`` vs ``writer_pause`` vs
``launch``), so the Figure 4/5 runners can report the same breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ProtocolCost:
    """Cost breakdown of one control operation."""

    operation: str
    container: str
    amount: int
    started_at: float
    finished_at: float = 0.0
    #: seconds per category
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: message count per category
    messages: Dict[str, int] = field(default_factory=dict)
    rounds: List[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.finished_at - self.started_at

    def charge(self, category: str, seconds: float, messages: int = 0) -> None:
        self.breakdown[category] = self.breakdown.get(category, 0.0) + seconds
        if messages:
            self.messages[category] = self.messages.get(category, 0) + messages

    def round(self, label: str) -> None:
        self.rounds.append(label)


class ProtocolTracer:
    """Accumulates :class:`ProtocolCost` records across a run."""

    def __init__(self):
        self.records: List[ProtocolCost] = []

    def begin(self, operation: str, container: str, amount: int, now: float) -> ProtocolCost:
        record = ProtocolCost(
            operation=operation, container=container, amount=amount, started_at=now
        )
        self.records.append(record)
        return record

    def of(self, operation: str) -> List[ProtocolCost]:
        return [r for r in self.records if r.operation == operation]

    def last(self) -> Optional[ProtocolCost]:
        return self.records[-1] if self.records else None
