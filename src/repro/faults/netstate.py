"""Link-level fault windows, consulted by the network on every transfer.

:class:`NetworkFaultState` is the object hung on
:attr:`repro.cluster.network.Network.faults`.  It turns the LINK_* and
MESSAGE_DROP events of a :class:`~repro.faults.plan.FaultPlan` into
time-windowed predicates: partitions make affected transfers fail with
:class:`~repro.cluster.network.TransferError`, degradations stretch their
serialization time, drops lose messages with the scripted probability from
a seeded RNG (derived from the plan seed, so runs replay identically).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.simkernel import Environment
from repro.cluster.network import TransferError
from repro.cluster.node import Node
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan


class NetworkFaultState:
    """Evaluates a plan's link-fault windows against live transfers."""

    def __init__(self, env: Environment, plan: FaultPlan):
        self.env = env
        self.plan = plan
        # Derived stream: independent of any other consumer of the plan seed.
        self.rng = np.random.default_rng((plan.seed, 0x11FA))
        self._partitions = plan.events_of(FaultKind.LINK_PARTITION)
        self._degradations = plan.events_of(FaultKind.LINK_DEGRADE)
        self._drops = plan.events_of(FaultKind.MESSAGE_DROP)
        self._windows = self._partitions + self._degradations + self._drops
        #: transfers refused by an active partition window
        self.partitioned = 0
        #: messages lost to an active drop window
        self.dropped = 0

    @staticmethod
    def _matches(event: FaultEvent, src_id: int, dst_id: int) -> bool:
        if not event.targets:
            return True  # fabric-wide window
        return src_id in event.targets or dst_id in event.targets

    def _active(
        self, windows: Tuple[FaultEvent, ...], src_id: int, dst_id: int
    ) -> Iterator[FaultEvent]:
        now = self.env.now
        for event in windows:
            if event.time <= now < event.end and self._matches(event, src_id, dst_id):
                yield event

    # -- queries for the lease detector ---------------------------------------------

    def covers(self, src: Node, dst: Node) -> bool:
        """Whether a partition, drop or degrade window is open on the pair now."""
        return any(True for _ in self._active(self._windows, src.node_id, dst.node_id))

    def spans(self) -> List[Tuple[float, float]]:
        """Every window's ``[start, end)``, merged into disjoint sorted spans."""
        spans: List[Tuple[float, float]] = []
        for event in sorted(self._windows, key=lambda e: e.time):
            if spans and event.time <= spans[-1][1]:
                spans[-1] = (spans[-1][0], max(spans[-1][1], event.end))
            else:
                spans.append((event.time, event.end))
        return spans

    # -- hooks called by Network -------------------------------------------------

    def transit_check(self, src: Node, dst: Node, nbytes: float) -> None:
        """Raise :class:`TransferError` if this transfer is lost to a fault."""
        for event in self._active(self._partitions, src.node_id, dst.node_id):
            self.partitioned += 1
            raise TransferError(
                f"partition {event.targets or 'fabric-wide'}: "
                f"{src.node_id} -> {dst.node_id} unreachable"
            )
        for event in self._active(self._drops, src.node_id, dst.node_id):
            if self.rng.random() < event.severity:
                self.dropped += 1
                raise TransferError(
                    f"message {src.node_id} -> {dst.node_id} dropped "
                    f"(p={event.severity})"
                )

    def delay_factor(self, src: Node, dst: Node) -> float:
        """Serialization-time multiplier from active degradation windows."""
        factor = 1.0
        for event in self._active(self._degradations, src.node_id, dst.node_id):
            factor *= event.severity
        return factor
