"""Monitoring: metric windows, time series, bottleneck detection.

Implements the paper's lightweight monitoring layer (Section III-E): latency
is measured "from the time the input data from a timestep enters the
component until it exits"; the bottleneck is "the pipeline's container with
the longest average latency"; and all series are recorded so the Figure 7-10
runners can report them.
"""

from repro.monitoring.metrics import LatencyWindow, Telemetry, TimeSeries
from repro.monitoring.bottleneck import find_bottleneck, queue_growth_rate

__all__ = [
    "LatencyWindow",
    "Telemetry",
    "TimeSeries",
    "find_bottleneck",
    "queue_growth_rate",
]
