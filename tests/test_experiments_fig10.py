"""Tests for the fig10 runner and remaining manager operation paths."""

import pytest

from repro import Environment
from repro.experiments import run_experiment
from repro.experiments.report import render
from repro.simkernel.errors import SimulationError
from repro.spec import PipelineSpec, WorkloadSpec, build


class TestFig10Runner:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig10")

    def test_paper_config_prunes_bonds(self, result):
        paper = result["paper_config_1024"]
        assert paper["containers"]["bonds"]["offline"]
        assert paper["blocked_seconds"] == 0.0

    def test_companion_shows_rising_then_drop(self, result):
        companion = result["companion_640"]
        e2e = companion["end_to_end"]
        offline_at = next(t for t, label in companion["events"]
                          if "offline bonds" in label)
        before = [v for t, v in e2e if t <= offline_at]
        after = [v for t, v in e2e if t > offline_at + 30]
        assert before and after
        assert before[-1] > before[0]
        assert max(after) < before[-1] * 0.25

    def test_renders_without_error(self, result):
        text = render(result)
        assert "paper_config_1024" in text
        assert "end_to_end" in text


class TestManagerOpEdges:
    def _pipe(self, env):
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=6)
        return build(env, PipelineSpec(
            "fig10-edges", workload=wl,
            builder=dict(seed=0, control_interval=10_000)))

    def test_activate_already_active_is_noop(self):
        env = Environment()
        pipe = self._pipe(env)

        def ctl(env):
            yield env.timeout(1)
            units = yield pipe.global_manager.activate("bonds")
            assert units == 4  # unchanged

        env.process(ctl(env))
        pipe.run(settle=60)

    def test_set_stride_unknown_container(self):
        env = Environment()
        pipe = self._pipe(env)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.set_stride("ghost", 2)

        env.process(ctl(env))
        with pytest.raises(SimulationError, match="unknown container"):
            pipe.run(settle=60)

    def test_offline_idempotent(self):
        env = Environment()
        pipe = self._pipe(env)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.take_offline("csym")
            # Second call finds it already offline: no crash, no node loss.
            yield pipe.global_manager.take_offline("csym")

        env.process(ctl(env))
        pipe.run(settle=120)
        assert pipe.containers["csym"].offline
        assert pipe.scheduler.free_nodes == 3

    def test_monitor_skips_offline_containers(self):
        env = Environment()
        pipe = self._pipe(env)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.take_offline("csym")

        env.process(ctl(env))
        pipe.run(settle=120)
        series = pipe.telemetry.get("csym", "units")
        # Reports stop after the offline transition.
        if series is not None:
            assert all(v > 0 for v in series.values)
