"""Online forecasters over metric streams.

Two deliberately small models, both O(1) state per observation and both
pure float arithmetic — no RNG, no wall clock — so a replay of the same
seeded run produces bit-identical forecasts:

* :class:`EWMAForecaster` — an exponentially weighted level.  Uses the
  ``level += alpha * (value - level)`` update form, which is exact (not
  just close) on constant series: the correction term is exactly zero.
* :class:`TrendForecaster` — ordinary least squares over a rolling
  window of the last N samples, extrapolated ``horizon`` seconds past
  the newest sample.  Centred on the window means for numerical
  stability; recovers affine series exactly up to float rounding.

Both return ``None`` until they have seen at least one sample, so
callers can distinguish "no data yet" from "forecast says zero".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

__all__ = ["EWMAForecaster", "TrendForecaster"]


class EWMAForecaster:
    """Exponentially weighted moving average; flat-line extrapolation."""

    __slots__ = ("alpha", "level", "last_time")

    def __init__(self, alpha: float = 0.4):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.level: Optional[float] = None
        self.last_time: Optional[float] = None

    def observe(self, time: float, value: float) -> None:
        if self.level is None:
            self.level = float(value)
        else:
            # Incremental form: exactly stationary on constant input.
            self.level += self.alpha * (value - self.level)
        self.last_time = time

    def forecast(self, horizon: float = 0.0) -> Optional[float]:
        """EWMA models level only, so the horizon does not move it."""
        return self.level


class TrendForecaster:
    """Rolling least-squares line over the last ``window`` samples."""

    __slots__ = ("_pts",)

    def __init__(self, window: int = 8):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self._pts = deque(maxlen=window)

    @property
    def window(self) -> int:
        return self._pts.maxlen

    def observe(self, time: float, value: float) -> None:
        self._pts.append((time, value))

    def forecast(self, horizon: float = 0.0) -> Optional[float]:
        pts = self._pts
        n = len(pts)
        if n == 0:
            return None
        if n == 1:
            return pts[0][1]
        t_mean = sum(t for t, _ in pts) / n
        v_mean = sum(v for _, v in pts) / n
        num = 0.0
        den = 0.0
        for t, v in pts:
            dt = t - t_mean
            num += dt * (v - v_mean)
            den += dt * dt
        if den == 0.0:
            # All samples at one timestamp: no slope information.
            return v_mean
        slope = num / den
        t_last = pts[-1][0]
        return v_mean + slope * (t_last + horizon - t_mean)
