"""Tests for metric windows, telemetry, and bottleneck detection."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.monitoring import LatencyWindow, Telemetry, TimeSeries, find_bottleneck, queue_growth_rate
from repro.monitoring.bottleneck import predict_overflow_time


class TestLatencyWindow:
    def test_mean_over_window(self):
        w = LatencyWindow(maxlen=3)
        for t, lat in [(0, 10), (1, 20), (2, 30), (3, 40)]:
            w.observe(t, lat)
        assert w.mean() == pytest.approx(30.0)  # 10 evicted
        assert w.count == 4
        assert len(w) == 3

    def test_empty_window(self):
        w = LatencyWindow()
        assert w.mean() is None

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyWindow().observe(0, -1)

    def test_maxlen_validation(self):
        with pytest.raises(ValueError):
            LatencyWindow(maxlen=0)

    @settings(max_examples=200, deadline=None)
    @given(
        maxlen=st.sampled_from([3, 8]),
        values=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1e12),
                st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e12]),
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_mean_is_bit_identical_to_numpy(self, maxlen, values):
        w = LatencyWindow(maxlen=maxlen)
        for i, value in enumerate(values):
            w.observe(float(i), value)
            want = float(np.mean(values[max(0, i + 1 - maxlen):i + 1]))
            assert struct.pack("<d", w.mean()) == struct.pack("<d", want)


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


class TestMonitoringTick:
    """The tick's shortcuts answer exactly what the long way would."""

    @staticmethod
    def _overload():
        from repro import Environment
        from repro.spec import build, load_preset

        return build(Environment(), load_preset("overload").override(workload=dict(steps=6)))

    def test_sizing_memo_matches_the_cost_model(self, monkeypatch):
        from repro.smartpointer.costs import CostModel

        pipe = self._overload()
        real = CostModel.units_to_sustain
        computed = []

        def counting(cost, *args, **kwargs):
            computed.append(args)
            return real(cost, *args, **kwargs)

        monkeypatch.setattr(CostModel, "units_to_sustain", counting)
        pipe.run(settle=120)
        managers = list(pipe.global_manager.locals.values())
        asked = [(lm, key) for lm in managers for key in lm._sustain]
        assert asked
        for lm, key in asked:
            assert lm._sustain[key] == real(lm.container.spec.cost, *key)
        # one cost-model search per key and manager, however often asked
        assert len(computed) == len(asked)

    def test_snapshot_reads_sizing_from_reports(self, monkeypatch):
        pipe = self._overload()
        gm = pipe.global_manager
        with monkeypatch.context() as m:
            for name, lm in gm.locals.items():
                m.setattr(lm, "shortfall", lambda _, name=name: ("short", name))
                m.setattr(lm, "headroom", lambda _, name=name: ("head", name))
            before = gm.snapshot()  # no report yet: asks each manager
        for name in gm.locals:
            assert before[name].shortfall == ("short", name)
            assert before[name].headroom == ("head", name)

        pipe.env.run(until=2 * gm.locals["bonds"].monitor_interval)
        reports = dict(gm._reports)
        assert set(reports) == set(gm.locals)

        def refuse(*_):
            raise AssertionError("snapshot asked a manager a reported figure")

        for lm in gm.locals.values():
            monkeypatch.setattr(lm, "shortfall", refuse)
            monkeypatch.setattr(lm, "headroom", refuse)
        states = gm.snapshot()
        for name, report in reports.items():
            assert states[name].shortfall == report["shortfall"]
            assert states[name].headroom == report["headroom"]
