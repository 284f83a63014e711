"""Tests for repro.analytics: ring-buffer round trips at every capacity
boundary, forecaster exactness on the series families they model, replay
bit-identity of the whole forecaster stack, and mid-run visibility of
ladder transitions in the series store."""

import math

from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment
from repro.analytics.forecast import EWMAForecaster, TrendForecaster
from repro.analytics.series import MetricSeries, SeriesStore
from repro.containers.presets import build_predictive_pipeline
from repro.overload.brownout import ESCALATIONS
from repro.overload.scenario import overload_burst_plan


# -- ring buffer ------------------------------------------------------------------


class TestMetricSeries:
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_append_wrap_query_round_trip(self, capacity, values):
        """At every boundary — empty, partial, exactly full, wrapped once,
        wrapped many times — the ring retains exactly the newest
        min(n, capacity) samples, oldest first."""
        series = MetricSeries("m", capacity)
        samples = [(float(i), v) for i, v in enumerate(values)]
        for t, v in samples:
            series.append(t, v)

        retained = samples[-capacity:]
        assert series.count == len(samples)
        assert len(series) == len(retained)
        assert series.window() == retained
        assert series.last() == (retained[-1] if retained else None)
        assert series.times() == [t for t, _ in retained]
        assert series.values() == [v for _, v in retained]

    @given(
        capacity=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=0, max_value=24),
        cut=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_and_since_agree(self, capacity, n, cut):
        series = MetricSeries("m", capacity)
        for i in range(n):
            series.append(float(i), float(i) * 2.0)
        retained = series.window()
        assert series.since(float(cut)) == [
            (t, v) for t, v in retained if t >= cut
        ]
        # partial windows are suffixes of the full window
        for k in range(len(retained) + 1):
            assert series.window(k) == retained[len(retained) - k:]

    def test_store_get_or_create(self):
        store = SeriesStore(default_capacity=4)
        assert store.get("x") is None and "x" not in store
        store.append("x", 1.0, 2.0)
        assert "x" in store and store.get("x").last() == (1.0, 2.0)


# -- forecasters ------------------------------------------------------------------


class TestForecasters:
    @given(
        alpha=st.floats(min_value=0.01, max_value=1.0),
        value=st.floats(allow_nan=False, allow_infinity=False, width=32),
        n=st.integers(min_value=1, max_value=32),
        horizon=st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_ewma_exact_on_constant_series(self, alpha, value, n, horizon):
        """The incremental update form makes the correction term exactly
        zero on constant input — equality, not closeness."""
        model = EWMAForecaster(alpha)
        assert model.forecast() is None
        for i in range(n):
            model.observe(float(i), value)
        assert model.forecast(horizon) == value

    @given(
        window=st.integers(min_value=2, max_value=12),
        intercept=st.floats(min_value=-1e3, max_value=1e3),
        slope=st.floats(min_value=-50.0, max_value=50.0),
        n=st.integers(min_value=2, max_value=32),
        horizon=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_trend_exact_on_affine_series(self, window, intercept, slope, n,
                                          horizon):
        """OLS over any window of an affine series recovers the line, so
        extrapolation lands on it up to float rounding."""
        model = TrendForecaster(window)
        assert model.forecast() is None
        last = 0.0
        for i in range(n):
            t = float(i) * 3.0
            model.observe(t, intercept + slope * t)
            last = t
        expected = intercept + slope * (last + horizon)
        assert math.isclose(model.forecast(horizon), expected,
                            rel_tol=1e-9, abs_tol=1e-6)

    def test_trend_degenerate_cases(self):
        model = TrendForecaster(4)
        model.observe(10.0, 5.0)
        assert model.forecast(99.0) == 5.0  # one point: no slope
        model.observe(10.0, 7.0)
        assert model.forecast(99.0) == 6.0  # zero time spread: mean


# -- replay identity of the full stack --------------------------------------------


def _run_predictive(steps=12, seed=3):
    env = Environment()
    pipe = build_predictive_pipeline(env, steps=steps, seed=seed)
    plan = overload_burst_plan(seed, pipe)
    if plan.events:
        pipe.arm_faults(plan)
    pipe.run(settle=600)
    return env, pipe


def _fingerprint(pipe):
    analytics = pipe.analytics
    return {
        "samples": analytics.samples,
        "signals": analytics.signals,
        "store": analytics.store.as_dict(),
        "forecasts": {
            name: analytics.forecast(name) for name in analytics.store.names()
        },
        "trace": pipe.degradation.as_dicts(),
        "shed": pipe.shed_ledger.by_reason(),
    }


class TestReplayIdentity:
    def test_forecasts_bit_identical_across_replays(self):
        """Same seed, same schedule: every series, every forecast, every
        signal — the analytics layer rides the simulation clock with no
        state of its own."""
        _, pipe_a = _run_predictive()
        _, pipe_b = _run_predictive()
        assert _fingerprint(pipe_a) == _fingerprint(pipe_b)

    def test_counter_series_count_this_run(self):
        """The mirrored shed and escalation counts are read from the run's
        own fate ledger and ladder: each sample equals what that run had
        recorded by then, whatever ran earlier in the process."""
        for _ in range(2):
            _, pipe = _run_predictive()
            store = pipe.analytics.store
            sheds = store.get("counter.overload.shed").window()
            escalations = store.get("counter.overload.escalations").window()
            assert sheds[-1][1] > 0 and escalations[-1][1] > 0
            for t, value in sheds:
                assert value == sum(1 for r in pipe.fates.shed_records if r.time <= t)
            for t, value in escalations:
                assert value == sum(
                    1 for s in pipe.degradation.steps
                    if s.kind == "brownout" and s.action in ESCALATIONS
                    and s.time <= t
                )


# -- mid-run visibility (the end-only publication regression) ---------------------


class TestMidRunVisibility:
    def test_series_reflects_escalation_at_transition_time(self):
        """A ladder transition must land in the series store the moment it
        happens: the first poll *after* each trace step already sees a
        sample stamped at (or after) the step's transition time, and at
        least one poll strictly before pipeline end observed a nonzero
        degradation level."""
        env = Environment()
        pipe = build_predictive_pipeline(env, steps=12, seed=3)
        plan = overload_burst_plan(3, pipe)
        if plan.events:
            pipe.arm_faults(plan)

        polls = []

        def probe():
            while True:
                yield env.timeout(5.0)
                series = pipe.analytics.store.get("overload.degradation_level")
                polls.append((env.now, series.last() if series else None))

        env.process(probe(), name="probe")
        pipe.run(settle=600)
        end = env.now

        steps = [s for s in pipe.degradation.steps]
        assert steps, "scenario never engaged the ladder"
        for step in steps:
            later = [p for p in polls if p[0] > step.time]
            assert later, f"no poll after transition at t={step.time}"
            seen = later[0][1]
            assert seen is not None and seen[0] >= step.time, (
                f"transition at t={step.time} not visible to the poll at "
                f"t={later[0][0]}"
            )
        assert any(
            t < end and last is not None and last[1] > 0
            for t, last in polls
        ), "no mid-run poll ever saw a nonzero degradation level"
