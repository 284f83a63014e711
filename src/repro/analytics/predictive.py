"""The predictive policy: sample, derive, forecast, signal.

:class:`PredictiveManager` is the runtime object a pipeline built with
``overload: {mode: predictive}`` carries (``pipe.analytics``).  It owns

* a sampling process that, every ``sample_interval`` simulated seconds,
  records the GM snapshot, the driver's staging-buffer occupancy and the
  derived risk metrics into the pipeline's telemetry, under the
  :data:`SCOPE` scope (``("analytics", "bonds.sla_ratio")``, ...);
* one EWMA + one rolling-trend forecaster per metric, updated as the
  samples land; and
* the query surface the overload controllers consult:
  :meth:`sla_risk` (worst forecast SLA ratio over live containers),
  :meth:`forecast` (per-metric, conservative max of level and trend),
  and :meth:`signal`, which records the forecaster evidence *before* a
  proactive action executes — the DST invariant
  ``predictive_actions_bounded`` audits exactly this ordering.

Everything here is driven by the simulation clock and the deterministic
snapshot order of the GM's insertion-ordered manager dict, so two
replays of the same seeded run produce bit-identical series, forecasts
and signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.simkernel import Interrupt
from repro.perf.registry import REGISTRY
from repro.analytics.derived import ContainerRiskModel
from repro.analytics.forecast import EWMAForecaster, TrendForecaster

__all__ = ["NoForecast", "PredictiveConfig", "PredictiveManager", "SCOPE"]

#: the telemetry scope of the forecaster's samples and signals; a scope of
#: its own because ``(stage, "buffer_occupancy")`` is a manager report series
SCOPE = "analytics"


@dataclass(frozen=True)
class PredictiveConfig:
    """Tuning of the sampling/forecasting loop and the proactive policy.

    Two instances exist: :attr:`PredictiveManager.config` (these
    defaults, reported in the predictive experiment's JSON through
    :meth:`as_dict`) and :attr:`NoForecast.config`, whose factors reduce
    every forecast-guided branch of the controllers to the reactive one.
    """

    #: seconds between metric samples
    sample_interval: float = 5.0
    #: how far ahead (seconds) the controllers ask the forecasters to look
    horizon: float = 30.0
    #: EWMA smoothing factor
    ewma_alpha: float = 0.4
    #: rolling window (samples) for the linear-trend forecaster
    trend_window: int = 8
    #: samples a metric needs before its forecast counts
    min_observations: int = 3
    #: forecast SLA ratio that triggers a proactive escalation
    risk_threshold: float = 1.0
    #: ladder rungs a forecast alone may take; shedding rungs (stride,
    #: offline) always wait for a real violation
    proactive_kinds: Tuple[str, ...] = ("increase", "steal")
    #: ladder height a forecast alone may build — beyond this, escalation
    #: again requires an observed violation
    max_proactive_level: int = 2
    #: recovery dwell multiplier when the forecast confirms the calm
    recovery_dwell_factor: float = 0.5
    #: brownout check-interval multiplier while the forecast confirms the
    #: violation persists — the ladder climbs rung-by-rung but faster
    escalation_check_factor: float = 0.5
    #: cap on the undo_offline dwell multiplier built by premature-recovery
    #: backoff (1.0 disables the backoff entirely)
    offline_backoff_cap: float = 2.0

    def as_dict(self) -> dict:
        return {
            "sample_interval": self.sample_interval,
            "horizon": self.horizon,
            "ewma_alpha": self.ewma_alpha,
            "trend_window": self.trend_window,
            "min_observations": self.min_observations,
            "risk_threshold": self.risk_threshold,
            "proactive_kinds": list(self.proactive_kinds),
            "max_proactive_level": self.max_proactive_level,
            "recovery_dwell_factor": self.recovery_dwell_factor,
            "escalation_check_factor": self.escalation_check_factor,
            "offline_backoff_cap": self.offline_backoff_cap,
        }


class PredictiveManager:
    """Samples pipeline metrics and serves forecasts to the controllers."""

    #: the forecaster's tuning, one value for every predictive pipeline
    config = PredictiveConfig()

    def __init__(self, env, pipe):
        self.env = env
        self.pipe = pipe
        self.telemetry = pipe.telemetry
        #: metric -> (level, trend) forecasters, created by its first sample
        self._models: Dict[str, Tuple[EWMAForecaster, TrendForecaster]] = {}
        self._risk = ContainerRiskModel(
            pipe.global_manager.sla_interval, trend_window=self.config.trend_window
        )
        self.signals = 0
        self.samples = 0
        self._stopped = False
        self._proc = env.process(self._run(), name="analytics")

    def stop(self) -> None:
        self._stopped = True
        if self._proc.is_alive:
            self._proc.interrupt("stop")

    # -- the sampling loop ----------------------------------------------------------

    def _run(self):
        interval = self.config.sample_interval
        while True:
            try:
                yield self.env.timeout(interval)
            except Interrupt:
                return
            if self._stopped:
                return
            self.sample()

    def sample(self) -> None:
        """Record one observation of the whole pipeline."""
        now = self.env.now
        gm = self.pipe.global_manager
        for name, state in gm.snapshot().items():
            if state.offline or not state.active or state.units <= 0:
                continue
            latency = state.effective_latency()
            if latency is not None:
                budget = gm.sla_interval * state.sla_factor
                self.observe(f"{name}.sla_ratio", now, latency / budget)
            self.observe(f"{name}.buffer_occupancy", now, state.buffer_occupancy)
            stride = gm.locals[name].container.stride
            derived = self._risk.update(now, state, stride=stride)
            self.observe(f"{name}.queue_risk", now, derived.queue_risk)
            self.observe(f"{name}.headroom_trend", now, derived.headroom_trend)
            self.observe(f"{name}.stride_demand", now, derived.stride_demand)
        occ = max(w.buffer.occupancy for w in self.pipe.driver.writers)
        self.observe("sim.buffer_occupancy", now, occ)
        self.samples += 1

    def observe(self, metric: str, time: float, value: float) -> None:
        """Record one sample and update that metric's forecasters."""
        self.telemetry.record(SCOPE, metric, time, value)
        models = self._models.get(metric)
        if models is None:
            models = self._models[metric] = (
                EWMAForecaster(self.config.ewma_alpha),
                TrendForecaster(self.config.trend_window),
            )
        for model in models:
            model.observe(time, value)

    # -- the query surface ----------------------------------------------------------

    def last(self, metric: str) -> Optional[Tuple[float, float]]:
        """The newest ``(time, value)`` sample of ``metric``, or None."""
        series = self.telemetry.get(SCOPE, metric)
        if not series:
            return None
        return series.times[-1], series.values[-1]

    def forecast(self, metric: str, horizon: Optional[float] = None) -> Optional[float]:
        """Conservative forecast for ``metric`` at ``now + horizon``.

        Takes the max of the EWMA level and the trend extrapolation: for
        risk-like metrics a controller should act on whichever model
        paints the darker picture.  None until ``min_observations``
        samples have landed, and for series without forecasters
        (``signal.*``).
        """
        models = self._models.get(metric)
        if (models is None
                or len(self.telemetry.get(SCOPE, metric)) < self.config.min_observations):
            return None
        if horizon is None:
            horizon = self.config.horizon
        level = models[0].forecast(horizon)
        trend = models[1].forecast(horizon)
        return level if level >= trend else trend

    def sla_risk(
        self, horizon: Optional[float] = None, max_age: Optional[float] = None,
    ) -> Optional[Tuple[str, float]]:
        """Worst forecast SLA ratio over live containers: (name, ratio).

        Containers whose ratio series has gone quiet — offline, idle, or
        strided so hard they stopped completing steps — are excluded
        after ``max_age`` (default two sample intervals): a forecaster
        frozen on its last pre-outage sample is evidence of nothing.
        """
        if max_age is None:
            max_age = 2.0 * self.config.sample_interval
        now = self.env.now
        worst: Optional[Tuple[str, float]] = None
        for name, manager in self.pipe.global_manager.locals.items():
            container = manager.container
            if container.offline or not getattr(container, "active", True):
                continue
            last = self.last(f"{name}.sla_ratio")
            if last is None or now - last[0] > max_age:
                continue
            value = self.forecast(f"{name}.sla_ratio", horizon)
            if value is None:
                continue
            if worst is None or value > worst[1]:
                worst = (name, value)
        return worst

    def shed_pressure(self, stage: str, window: Optional[float] = None) -> int:
        """Sheds attributed to ``stage`` within the trailing ``window``.

        Counts the fate ledger's shed records, so a recovery decision can
        rank ladder rungs by which stage is *currently* losing work.  The
        window defaults to the forecast horizon.
        """
        if window is None:
            window = self.config.horizon
        since = self.env.now - window
        return sum(1 for record in self.pipe.fates.shed_records
                   if record.stage == stage and record.time >= since)

    def signal(self, kind: str, value: float, subject: str = "") -> float:
        """Record forecaster evidence ahead of a proactive action.

        Returns the signal time; the ``predictive_actions_bounded`` DST
        invariant requires every proactive trace step to be preceded by
        one of these at or before its transition time.
        """
        now = self.env.now
        self.telemetry.record(SCOPE, f"signal.{kind}", now, float(value))
        self.signals += 1
        REGISTRY.count("analytics.signals")
        if subject:
            self.telemetry.mark(
                now, f"predictive signal {kind}: {subject} -> {value:.3f}"
            )
        return now

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "samples": self.samples,
            "signals": self.signals,
            "series": self.telemetry.metrics(SCOPE),
        }


class NoForecast:
    """A reactive pipeline's forecaster: its config and zero shed pressure
    reduce every forecast-guided branch of the overload controllers to
    the reactive one."""

    config = PredictiveConfig(
        escalation_check_factor=1.0, offline_backoff_cap=1.0, max_proactive_level=0,
    )

    def stop(self) -> None:
        pass

    def forecast(self, *args) -> None:
        return None

    sla_risk = forecast

    def shed_pressure(self, *args) -> int:
        return 0
