"""Tests for metric windows, telemetry, and bottleneck detection."""

import pytest

from repro.monitoring import LatencyWindow, Telemetry, TimeSeries, find_bottleneck, queue_growth_rate
from repro.monitoring.bottleneck import predict_overflow_time


class TestLatencyWindow:
    def test_mean_over_window(self):
        w = LatencyWindow(maxlen=3)
        for t, lat in [(0, 10), (1, 20), (2, 30), (3, 40)]:
            w.observe(t, lat)
        assert w.mean() == pytest.approx(30.0)  # 10 evicted
        assert w.last() == 40
        assert w.count == 4
        assert len(w) == 3

    def test_empty_window(self):
        w = LatencyWindow()
        assert w.mean() is None
        assert w.last() is None

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyWindow().observe(0, -1)

    def test_maxlen_validation(self):
        with pytest.raises(ValueError):
            LatencyWindow(maxlen=0)


class TestTelemetry:
    def test_series_created_on_demand(self):
        t = Telemetry()
        t.record("bonds", "latency", 1.0, 70.0)
        t.record("bonds", "latency", 2.0, 72.0)
        series = t.get("bonds", "latency")
        assert series.values == [70.0, 72.0]
        assert t.get("nothing", "here") is None

    def test_marks(self):
        t = Telemetry()
        t.mark(5.0, "increase bonds")
        assert t.events == [(5.0, "increase bonds")]

    def test_scopes(self):
        t = Telemetry()
        t.record("a", "x", 0, 1)
        t.record("b", "y", 0, 1)
        assert t.scopes() == ["a", "b"]

    def test_timeseries_arrays(self):
        s = TimeSeries("s")
        s.record(1, 10)
        s.record(2, 20)
        times, values = s.as_arrays()
        assert list(times) == [1, 2]
        assert s.last() == 20


class TestBottleneck:
    def test_longest_average_latency_wins(self):
        assert find_bottleneck({"a": 5.0, "b": 50.0, "c": 10.0}) == "b"

    def test_none_values_skipped(self):
        assert find_bottleneck({"a": None, "b": 3.0}) == "b"
        assert find_bottleneck({"a": None}) is None
        assert find_bottleneck({}) is None

    def test_queue_growth_rate(self):
        samples = [(0.0, 0.0), (10.0, 5.0)]
        assert queue_growth_rate(samples) == pytest.approx(0.5)
        assert queue_growth_rate([(0, 1)]) == 0.0
        assert queue_growth_rate([(5, 1), (5, 2)]) == 0.0

    def test_predict_overflow(self):
        samples = [(0.0, 0.0), (10.0, 0.5)]
        # occupancy 0.05/s -> hits 1.0 at t=20
        assert predict_overflow_time(samples, capacity=1.0) == pytest.approx(20.0)

    def test_predict_overflow_flat_trend(self):
        assert predict_overflow_time([(0, 0.5), (10, 0.5)], 1.0) is None
        assert predict_overflow_time([], 1.0) is None

    def test_predict_overflow_already_full(self):
        assert predict_overflow_time([(0, 0.2), (10, 1.2)], 1.0) == 10.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            predict_overflow_time([(0, 0)], capacity=0)
