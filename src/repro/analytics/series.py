"""Fixed-capacity, sim-time-stamped metric ring buffers.

:class:`MetricSeries` is the storage primitive of the analytics layer: a
preallocated circular buffer of ``(time, value)`` float pairs.  Appends
on the hot path touch two list slots and two integers — no allocation,
no resizing — so the sampling process and the ladder-transition
subscribers can record without perturbing the event schedule.

:class:`SeriesStore` is the per-pipeline registry mapping metric names
to series.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["MetricSeries", "SeriesStore"]


class MetricSeries:
    """Ring buffer of ``(sim_time, value)`` samples with fixed capacity.

    Once ``capacity`` samples have been appended the oldest sample is
    overwritten; ``count`` keeps the lifetime total so callers can tell
    a wrapped buffer from a partially filled one.
    """

    __slots__ = ("name", "capacity", "count", "_times", "_values", "_next")

    def __init__(self, name: str, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.count = 0
        self._times = [0.0] * capacity
        self._values = [0.0] * capacity
        self._next = 0

    def append(self, time: float, value: float) -> None:
        i = self._next
        self._times[i] = time
        self._values[i] = value
        self._next = i + 1 if i + 1 < self.capacity else 0
        self.count += 1

    def __len__(self) -> int:
        return self.capacity if self.count >= self.capacity else self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def last(self) -> Optional[Tuple[float, float]]:
        if self.count == 0:
            return None
        i = self._next - 1 if self._next else self.capacity - 1
        return (self._times[i], self._values[i])

    def window(self, n: Optional[int] = None) -> List[Tuple[float, float]]:
        """The most recent ``n`` samples (all retained ones by default),
        oldest first.  Allocates — meant for queries, not the hot path."""
        size = len(self)
        if n is None or n > size:
            n = size
        if n <= 0:
            return []
        start = (self._next - n) % self.capacity
        out = []
        for k in range(n):
            i = (start + k) % self.capacity
            out.append((self._times[i], self._values[i]))
        return out

    def times(self) -> List[float]:
        return [t for t, _ in self.window()]

    def values(self) -> List[float]:
        return [v for _, v in self.window()]

    def since(self, time: float) -> List[Tuple[float, float]]:
        """Retained samples with timestamp >= ``time``, oldest first."""
        return [(t, v) for t, v in self.window() if t >= time]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "count": self.count,
            "samples": [list(p) for p in self.window()],
        }


class SeriesStore:
    """Name -> :class:`MetricSeries` registry for one pipeline."""

    def __init__(self, default_capacity: int = 256):
        if default_capacity < 1:
            raise ValueError("default_capacity must be >= 1")
        self.default_capacity = default_capacity
        self._series: Dict[str, MetricSeries] = {}

    def series(self, name: str, capacity: Optional[int] = None) -> MetricSeries:
        """Get-or-create the series for ``name``."""
        s = self._series.get(name)
        if s is None:
            s = MetricSeries(name, capacity or self.default_capacity)
            self._series[name] = s
        return s

    def get(self, name: str) -> Optional[MetricSeries]:
        return self._series.get(name)

    def append(self, name: str, time: float, value: float) -> None:
        self.series(name).append(time, value)

    def names(self) -> List[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def as_dict(self) -> dict:
        return {name: self._series[name].as_dict() for name in self.names()}
