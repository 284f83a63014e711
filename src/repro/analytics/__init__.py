"""Predictive, metric-driven management (`repro.analytics`).

The paper's global manager is *reactive*: it inspects the current
monitoring snapshot and escalates only after an SLA violation is already
visible.  This package closes the loop ahead of the violation, in the
style of LASSi's derived I/O metrics and low-level time-series I/O
monitoring:

* :mod:`repro.analytics.derived` — LASSi-style per-container risk/ops
  metrics (queue-occupancy risk, buffer-headroom trend, stride-amplified
  demand), computed incrementally as samples arrive;
* :mod:`repro.analytics.forecast` — online forecasters (EWMA level and
  rolling linear trend), deterministic and replay-identical, exposing
  ``forecast(horizon)``;
* :mod:`repro.analytics.predictive` — the :class:`PredictiveManager`
  gluing it together: a sampling process that records every sample and
  signal into the pipeline's one metric store, its
  :class:`~repro.monitoring.metrics.Telemetry` (scope ``"analytics"``),
  feeds the forecasters, and serves the signals the overload controllers
  (:class:`~repro.overload.brownout.BrownoutController`,
  :class:`~repro.overload.backpressure.BackpressureController`) consult
  to escalate, stride, and tighten credits *before* the SLA ratio
  crosses its threshold.

Everything is opt-in: a pipeline built without ``mode: predictive`` in
its spec's overload block carries a
:class:`~repro.analytics.predictive.NoForecast`, which records nothing
and reduces every forecast-guided branch to the reactive one.
"""

from repro.analytics.derived import ContainerRiskModel, DerivedSample
from repro.analytics.forecast import EWMAForecaster, TrendForecaster
from repro.analytics.predictive import PredictiveConfig, PredictiveManager

__all__ = [
    "ContainerRiskModel",
    "DerivedSample",
    "EWMAForecaster",
    "TrendForecaster",
    "PredictiveConfig",
    "PredictiveManager",
]
