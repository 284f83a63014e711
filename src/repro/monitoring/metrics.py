"""Metric primitives: sliding windows and recorded time series."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np


class LatencyWindow:
    """Sliding window of (time, latency) observations.

    ``mean()`` over the most recent ``maxlen`` observations is the
    per-container latency statistic the bottleneck detector uses.
    """

    def __init__(self, maxlen: int = 8):
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._window: Deque[Tuple[float, float]] = deque(maxlen=maxlen)
        self.count = 0

    def observe(self, time: float, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self._window.append((time, latency))
        self.count += 1

    def mean(self) -> Optional[float]:
        """Window mean, bit-identical to ``float(np.mean(latencies))``.

        Summed in numpy's own order without building an array: below 8
        values numpy adds left to right from ``0.0``; at 8 it adds the
        pairs of pairs.  A longer window falls back to ``np.mean``.
        """
        window = self._window
        n = len(window)
        if n == 8:
            (_, a), (_, b), (_, c), (_, d), (_, e), (_, f), (_, g), (_, h) = window
            return (0.0 + (((a + b) + (c + d)) + ((e + f) + (g + h)))) / 8
        if n > 8:
            return float(np.mean([lat for _, lat in window]))
        if not n:
            return None
        total = 0.0
        for _, lat in window:
            total += lat
        return total / n

    def __len__(self) -> int:
        return len(self._window)


class TimeSeries:
    """An append-only (time, value) series."""

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.array(self.times), np.array(self.values)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None


class Telemetry:
    """Central recorder for everything the figures plot.

    Series are keyed ``(scope, metric)`` — e.g. ``("bonds", "latency")`` or
    ``("pipeline", "end_to_end")``.  Events (resizes, offlines) are recorded
    as ``(time, label)`` markers, matching the annotations on the paper's
    figures.
    """

    def __init__(self):
        self._series: Dict[Tuple[str, str], TimeSeries] = {}
        self.events: List[Tuple[float, str]] = []

    def series(self, scope: str, metric: str) -> TimeSeries:
        key = (scope, metric)
        if key not in self._series:
            self._series[key] = TimeSeries(f"{scope}.{metric}")
        return self._series[key]

    def record(self, scope: str, metric: str, time: float, value: float) -> None:
        self.series(scope, metric).record(time, value)

    def mark(self, time: float, label: str) -> None:
        self.events.append((time, label))

    def scopes(self) -> List[str]:
        return sorted({scope for scope, _ in self._series})

    def metrics(self, scope: str) -> List[str]:
        return sorted(metric for s, metric in self._series if s == scope)

    def get(self, scope: str, metric: str) -> Optional[TimeSeries]:
        return self._series.get((scope, metric))
