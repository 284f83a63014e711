"""Tests for static DAG pipelines (fan-out) and blocking accounting."""

import pytest

from repro import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build

MIB = 2**20

#: Bonds feeds CSym *and* CNA simultaneously (no standby, no branch)
FAN_OUT = (
    StageSpec("helper", 4, model="tree"),
    StageSpec("bonds", 5, upstream="helper"),
    StageSpec("csym", 3, upstream="bonds"),
    StageSpec("cna", 4, upstream="bonds"),
)


def _build(env, steps, staging_nodes, stages=None, spare=0, sim_nodes=256, **builder):
    wl = WorkloadSpec(sim_nodes=sim_nodes, staging_nodes=staging_nodes,
                      spare=spare, steps=steps)
    return build(env, PipelineSpec("dag", workload=wl, stages=stages,
                                   builder=builder))


class TestStaticFanOut:
    def test_two_active_consumers_each_see_full_stream(self):
        """A declared DAG: Bonds feeds CSym *and* CNA simultaneously (no
        standby, no branch) — both must process every timestep."""
        env = Environment()
        pipe = _build(env, 12, 16, FAN_OUT, seed=0, control_interval=10_000)
        assert len(pipe.containers["bonds"].output_links) == 2
        pipe.run(settle=900)
        assert pipe.containers["csym"].completions == 12
        assert pipe.containers["cna"].completions == 12
        # Both sinks wrote their own outputs.
        assert any(f.name.startswith("csym.") for f in pipe.fs.files)
        assert any(f.name.startswith("cna.") for f in pipe.fs.files)

    def test_fanout_exit_counts_each_sink(self):
        """Pipeline exits are recorded once per sink completion."""
        env = Environment()
        pipe = _build(env, 6, 16, FAN_OUT, seed=0, control_interval=10_000)
        pipe.run(settle=900)
        assert len(pipe.end_to_end) == 12  # 6 steps x 2 sinks

    def test_branch_semantics_preserved_with_standby(self):
        """The default (standby CNA) still swaps rather than fans out."""
        env = Environment()
        pipe = _build(env, 6, 13, seed=0, control_interval=10_000)
        assert len(pipe.containers["bonds"].output_links) == 1


class TestBlockingAccounting:
    def _tight(self, managed, steps=40):
        env = Environment()
        pipe = _build(
            env, steps, 24, spare=4, sim_nodes=1024, seed=1,
            control_interval=30.0 if managed else 1e9,
            stage_buffer_bytes=480 * MIB,
            sim_buffer_bytes=3 * 68 * MIB,
        )
        finished = pipe.run(settle=120)
        return pipe, finished

    def test_unmanaged_tight_buffers_wedge_the_application(self):
        pipe, finished = self._tight(managed=False)
        assert not finished
        assert pipe.driver.is_blocked
        assert pipe.driver.total_blocked_time > 0
        assert pipe.driver.steps_emitted < 40

    def test_managed_tight_buffers_stay_unblocked(self):
        pipe, finished = self._tight(managed=True)
        assert finished
        assert pipe.driver.total_blocked_time == 0.0
        assert not pipe.driver.is_blocked
        assert pipe.containers["bonds"].offline  # the prune saved the run

    def test_run_deadline_caps_wedged_simulations(self):
        """A wedged pipeline terminates at the deadline instead of ticking
        its monitors forever."""
        env = Environment()
        pipe = _build(
            env, 40, 24, spare=4, sim_nodes=1024, seed=1, control_interval=1e9,
            stage_buffer_bytes=480 * MIB, sim_buffer_bytes=3 * 68 * MIB,
        )
        finished = pipe.run(deadline=250.0)
        assert not finished
        assert env.now == pytest.approx(250.0, abs=1.0)

    def test_buffer_caps_validated(self, env, machine):
        from repro.datatap.buffer import StagingBuffer

        with pytest.raises(ValueError):
            StagingBuffer(env, machine.nodes[0], capacity_bytes=0)
