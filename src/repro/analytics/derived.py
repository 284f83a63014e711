"""LASSi-style derived per-container risk/ops metrics.

LASSi distils raw Lustre counters into a small set of *derived* metrics
(risk, ops intensity) that rank applications by how close they are to
hurting the filesystem.  The analogue here works off the GM's
:class:`~repro.containers.policy.ContainerState` snapshot and derives,
incrementally per sample:

* ``queue_risk`` — queued chunks per allocated unit, scaled by how far
  the container's latency estimate sits above its SLA share.  Rises
  before the SLA ratio itself crosses 1.0 because backlog accumulates
  first.
* ``headroom_trend`` — least-squares slope (per second) of the output
  buffer *headroom* ``1 - occupancy``.  Negative means the buffer is
  filling; the magnitude says how fast.
* ``stride_demand`` — node shortfall amplified by the current output
  stride: work currently being decimated returns in full once the
  stride unwinds, so the true demand is the shortfall scaled back up.

The model keeps one rolling trend window per container and updates in
O(window) per sample with no allocation beyond the returned tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analytics.forecast import TrendForecaster

__all__ = ["DerivedSample", "ContainerRiskModel"]


@dataclass(frozen=True)
class DerivedSample:
    """One container's derived metrics at one sample time."""

    name: str
    time: float
    queue_risk: float
    headroom_trend: float
    stride_demand: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "time": self.time,
            "queue_risk": self.queue_risk,
            "headroom_trend": self.headroom_trend,
            "stride_demand": self.stride_demand,
        }


class ContainerRiskModel:
    """Incremental derived-metric computation for a set of containers."""

    def __init__(self, sla_interval: float, trend_window: int = 8):
        if sla_interval <= 0:
            raise ValueError("sla_interval must be positive")
        self.sla_interval = sla_interval
        self.trend_window = trend_window
        self._headroom: Dict[str, TrendForecaster] = {}

    def update(self, time: float, state, stride: int = 1) -> DerivedSample:
        """Fold one snapshot row in and return the derived metrics.

        ``state`` is a :class:`~repro.containers.policy.ContainerState`;
        ``stride`` is the pipeline's current output stride (>= 1).
        """
        units = max(1, state.units)
        backlog_per_unit = state.queued / units

        latency = state.effective_latency()
        budget = self.sla_interval * state.sla_factor
        pressure = 1.0 if latency is None or budget <= 0 else max(1.0, latency / budget)
        queue_risk = backlog_per_unit * pressure

        trend = self._headroom.get(state.name)
        if trend is None:
            trend = self._headroom[state.name] = TrendForecaster(self.trend_window)
        trend.observe(time, 1.0 - state.buffer_occupancy)
        headroom_trend = self._slope(trend)

        stride_demand = float(max(0, state.shortfall)) * max(1, stride)

        return DerivedSample(
            name=state.name,
            time=time,
            queue_risk=queue_risk,
            headroom_trend=headroom_trend,
            stride_demand=stride_demand,
        )

    @staticmethod
    def _slope(trend: TrendForecaster) -> float:
        """Slope of the fitted line in units per second (0 until 2 samples)."""
        now_val = trend.forecast(0.0)
        ahead_val = trend.forecast(1.0)
        if now_val is None or ahead_val is None:
            return 0.0
        return ahead_val - now_val
