"""Tests for repro.analytics: forecaster exactness on the series families
they model, replay bit-identity of the whole forecaster stack, shed
pressure read from the fate ledger, and mid-run visibility of ladder
transitions in telemetry."""

import math

from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment
from repro.analytics.forecast import EWMAForecaster, TrendForecaster
from repro.analytics.predictive import SCOPE
from repro.containers.presets import build_predictive_pipeline
from repro.overload.scenario import overload_burst_plan


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
    names = pipe.telemetry.metrics(SCOPE)
    return {
        "samples": analytics.samples,
        "signals": analytics.signals,
        "series": {
            name: (pipe.telemetry.get(SCOPE, name).times,
                   pipe.telemetry.get(SCOPE, name).values)
            for name in names
        },
        "forecasts": {name: analytics.forecast(name) for name in names},
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


class TestShedPressure:
    def test_matches_ledger_at_every_recovery_pick(self):
        """At every brownout recovery pick of a seeded overload burst,
        each stage's shed pressure is the number of its shed records
        inside the trailing horizon, as a ledger subscriber saw them."""
        env = Environment()
        pipe = build_predictive_pipeline(env, steps=12, seed=3)
        plan = overload_burst_plan(3, pipe)
        if plan.events:
            pipe.arm_faults(plan)
        seen = {}
        pipe.fates.shed_subscribers.append(
            lambda record, _: seen.setdefault(record.stage, []).append(record.time)
        )
        brownout, analytics = pipe.brownout, pipe.analytics
        horizon = analytics.config.horizon
        picks = []
        choose = brownout._choose_unwind

        def checked_choose():
            since = env.now - horizon
            for stage in pipe.containers:
                expected = sum(1 for t in seen.get(stage, ()) if t >= since)
                assert analytics.shed_pressure(stage) == expected, (env.now, stage)
                picks.append(expected)
            return choose()

        brownout._choose_unwind = checked_choose
        pipe.run(settle=600)
        assert picks, "scenario never unwound a rung"
        assert any(picks), "no recovery pick saw shed pressure"


# -- mid-run visibility (the end-only publication regression) ---------------------


class TestMidRunVisibility:
    def test_series_reflects_escalation_at_transition_time(self):
        """A ladder transition must land in telemetry the moment it
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
                series = pipe.telemetry.get("overload", "degradation_level")
                polls.append(
                    (env.now, (series.times[-1], series.values[-1]) if series else None)
                )

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
