"""Management policies: deciding what the global manager should do.

The paper's policy (Section IV): watch per-container latency against the
SLA; when a container exceeds it, find the bottleneck (longest average
latency), ask its local manager what it needs, and satisfy the need from the
spare pool, then by stealing from over-provisioned containers, and — when
nothing else can prevent queue overflow from blocking the application — by
taking the non-essential bottleneck (and its dependents) offline.

Policies are pure decision functions over a metrics snapshot, so they are
unit-testable without a running pipeline, and swappable (the ablation tests
compare :class:`LatencyPolicy` with :class:`QueueDerivativePolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.monitoring.bottleneck import predict_overflow_time


@dataclass(frozen=True)
class ContainerState:
    """One container's view in the policy snapshot."""

    name: str
    units: int
    latency_mean: Optional[float]
    latency_est: Optional[float]  # mean or live input age, whichever is larger
    queued: int
    queue_samples: tuple       # (time, total queued chunks) history
    occupancy_samples: tuple   # (time, upstream buffer occupancy) history
    buffer_occupancy: float
    shortfall: int  # nodes short of sustaining the rate (0 = keeping up)
    headroom: int   # nodes it could donate and still sustain the rate
    essential: bool
    offline: bool
    active: bool
    #: per-container SLA scale: alarm threshold is sla_interval * sla_factor
    sla_factor: float = 1.0

    def effective_latency(self) -> Optional[float]:
        """Completed-window mean, falling back to the live estimate.

        A stage whose service time exceeds the monitoring period never
        completes anything between reports; the live input age is the only
        signal that it is the bottleneck.
        """
        if self.latency_mean is not None and self.latency_est is not None:
            return max(self.latency_mean, self.latency_est)
        return self.latency_mean if self.latency_mean is not None else self.latency_est


@dataclass(frozen=True)
class Increase:
    container: str
    count: int


@dataclass(frozen=True)
class Steal:
    donor: str
    recipient: str
    count: int


@dataclass(frozen=True)
class Offline:
    container: str
    reason: str


Action = object  # Increase | Steal | Offline


class ManagementPolicy:
    """Interface: snapshot in, actions out."""

    def decide(
        self,
        states: Dict[str, ContainerState],
        spare_nodes: int,
        sla_interval: float,
        now: float,
        horizon: float,
    ) -> List[Action]:
        raise NotImplementedError


class LatencyPolicy(ManagementPolicy):
    """The paper's policy: longest-average-latency bottleneck, spare-then-
    steal-then-offline remediation.

    Parameters
    ----------
    overflow_occupancy:
        Upstream-buffer occupancy above which overflow is considered
        imminent if the trend is positive.
    """

    def __init__(self, overflow_occupancy: float = 0.5):
        if not (0 < overflow_occupancy <= 1):
            raise ValueError("overflow_occupancy must be in (0, 1]")
        self.overflow_occupancy = overflow_occupancy

    def decide(self, states, spare_nodes, sla_interval, now, horizon):
        online = {
            name: s for name, s in states.items()
            if not s.offline and s.active and s.units > 0
        }
        # Anyone over its SLA?  (Each container alarms against its own
        # threshold: sla_interval scaled by its SLA class factor.)
        over = {
            name: s.effective_latency()
            for name, s in online.items()
            if s.effective_latency() is not None
            and s.effective_latency() > sla_interval * s.sla_factor
        }
        if not over:
            return []
        # Walk over-SLA containers from worst latency down; act on the first
        # that actually needs nodes.  (A stage whose *service time* exceeds
        # the SLA but whose allocation sustains the arrival rate is left
        # alone: its backlog is transient.)
        bottleneck = None
        for name in sorted(over, key=over.get, reverse=True):
            if online[name].shortfall > 0:
                bottleneck = name
                break
        if bottleneck is None:
            return []
        state = online[bottleneck]
        needed = state.shortfall

        actions: List[Action] = []
        remaining = needed
        take_spare = min(spare_nodes, remaining)
        if take_spare > 0:
            actions.append(Increase(bottleneck, take_spare))
            remaining -= take_spare
        if remaining > 0:
            donors = sorted(
                (s for s in online.values() if s.name != bottleneck and s.headroom > 0),
                key=lambda s: s.headroom,
                reverse=True,
            )
            for donor in donors:
                give = min(donor.headroom, remaining)
                actions.append(Steal(donor.name, bottleneck, give))
                remaining -= give
                if remaining == 0:
                    break
        if remaining > 0 and not actions and not state.essential:
            # Nothing can be freed anywhere: offline the bottleneck if the
            # backlog is actually going to overflow and block the app.
            if self._overflow_imminent(state, now, horizon):
                actions.append(Offline(bottleneck, reason="no resources; overflow imminent"))
        return actions

    def _overflow_imminent(self, state: ContainerState, now: float, horizon: float) -> bool:
        if state.buffer_occupancy >= self.overflow_occupancy:
            return True
        predicted = predict_overflow_time(list(state.occupancy_samples), capacity=1.0)
        return predicted is not None and predicted <= now + horizon


class QueueDerivativePolicy(ManagementPolicy):
    """Ablation policy: act on queue growth instead of latency level.

    Reacts as soon as a container's queue exhibits sustained growth, even
    before latency crosses the SLA — faster to converge, but can overreact
    to transients.
    """

    def __init__(self, growth_threshold: float = 0.005, overflow_occupancy: float = 0.5):
        self.growth_threshold = growth_threshold
        self._fallback = LatencyPolicy(overflow_occupancy)

    def decide(self, states, spare_nodes, sla_interval, now, horizon):
        from repro.monitoring.bottleneck import queue_growth_rate

        online = {
            name: s for name, s in states.items()
            if not s.offline and s.active and s.units > 0
        }
        growing = {
            name: queue_growth_rate(list(s.queue_samples))
            for name, s in online.items()
        }
        growing = {k: v for k, v in growing.items() if v > self.growth_threshold}
        if not growing:
            return []
        bottleneck = max(growing, key=growing.get)
        state = online[bottleneck]
        needed = max(1, state.shortfall)
        actions: List[Action] = []
        remaining = needed
        take_spare = min(spare_nodes, remaining)
        if take_spare:
            actions.append(Increase(bottleneck, take_spare))
            remaining -= take_spare
        if remaining > 0:
            donors = sorted(
                (s for s in online.values() if s.name != bottleneck and s.headroom > 0),
                key=lambda s: s.headroom,
                reverse=True,
            )
            for donor in donors:
                give = min(donor.headroom, remaining)
                actions.append(Steal(donor.name, bottleneck, give))
                remaining -= give
                if remaining == 0:
                    break
        if remaining > 0 and not actions and not state.essential:
            if self._fallback._overflow_imminent(state, now, horizon):
                actions.append(Offline(bottleneck, reason="queue growth; overflow imminent"))
        return actions
