"""Tests for the fig10 runner and remaining manager operation paths."""

import numpy as np
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
        # the full published shape: a real rise before the sharp drop
        assert len(before) >= 3
        assert before[-1] > before[0] * 1.2

    def test_paper_config_sharp_drop(self, result):
        paper = result["paper_config_1024"]
        e2e = paper["end_to_end"]
        offline_at = next(t for t, label in paper["events"] if "offline bonds" in label)
        before = [v for t, v in e2e if t <= offline_at]
        after = [v for t, v in e2e if t > offline_at + 30]
        assert after, "pipeline must keep exiting (to disk) after the prune"
        # post-prune latency is a tiny fraction of pre-prune (or of the
        # in-flight latency when nothing exited pre-prune)
        reference = max(before) if before else offline_at - 15.0
        assert max(after) < reference * 0.25

    def test_paper_config_exit_rate_recovers_after_prune(self, result):
        """After the prune the pipeline keeps pace with the application
        again: one exit per output interval."""
        paper = result["paper_config_1024"]
        offline_at = next(t for t, label in paper["events"] if "offline bonds" in label)
        gaps = np.diff([t for t, _ in paper["end_to_end"] if t > offline_at + 30])
        assert len(gaps) > 5
        assert np.median(gaps) == pytest.approx(15.0, rel=0.1)

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
