"""Tests for mid-run container launches and the visualization scenario."""

import pytest

from repro import Environment
from repro.simkernel.errors import SimulationError
from repro.smartpointer.component import VIZ_COMPONENT
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build as build_spec


def build(env, steps=20, staging=17, stages=None, **builder):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=staging,
                      spare=staging - 13, steps=steps)
    return build_spec(env, PipelineSpec("launch", workload=wl, stages=stages,
                                        builder=dict(seed=0, **builder)))


class TestLaunchStage:
    def test_viz_launch_from_spares(self):
        env = Environment()
        pipe = build(env, staging=17)  # 4 spares after default stages

        def ctl(env):
            yield env.timeout(100)
            yield pipe.launch_stage(VIZ_COMPONENT, units=2, upstream="bonds",
                                    name="viz")

        env.process(ctl(env))
        pipe.run(settle=300)
        viz = pipe.containers["viz"]
        assert viz.units == 2
        assert viz.completions > 0  # it received and rendered bonds output

    def test_launch_attaches_link_to_sink(self):
        """Launching downstream of CSym (a sink) retrofits an output link."""
        env = Environment()
        pipe = build(env, staging=17)
        assert pipe.containers["csym"].output_link is None

        def ctl(env):
            yield env.timeout(100)
            yield pipe.launch_stage(VIZ_COMPONENT, units=2, upstream="csym",
                                    name="viz")

        env.process(ctl(env))
        pipe.run(settle=300)
        assert pipe.containers["csym"].output_link is not None
        assert pipe.containers["viz"].completions > 0

    def test_pre_launch_output_still_on_disk(self):
        """CSym output produced before the viz launch went to disk; output
        after the launch streams to viz instead."""
        env = Environment()
        pipe = build(env, staging=17, steps=24)

        def ctl(env):
            yield env.timeout(200)
            yield pipe.launch_stage(VIZ_COMPONENT, units=2, upstream="csym",
                                    name="viz")

        env.process(ctl(env))
        pipe.run(settle=300)
        csym_disk = [f for f in pipe.fs.files if f.name.startswith("csym.ts")]
        assert csym_disk  # early steps
        assert pipe.containers["viz"].completions > 0  # later steps

    def test_duplicate_launch_rejected(self):
        env = Environment()
        pipe = build(env, staging=17)

        def ctl(env):
            yield env.timeout(50)
            yield pipe.launch_stage(VIZ_COMPONENT, units=1, upstream="bonds",
                                    name="viz")
            yield pipe.launch_stage(VIZ_COMPONENT, units=1, upstream="bonds",
                                    name="viz")

        proc = env.process(ctl(env))
        with pytest.raises(SimulationError, match="already exists"):
            pipe.run(settle=120)

    def test_launch_recorded_in_telemetry(self):
        env = Environment()
        pipe = build(env, staging=17)

        def ctl(env):
            yield env.timeout(50)
            yield pipe.launch_stage(VIZ_COMPONENT, units=1, upstream="bonds",
                                    name="viz")

        env.process(ctl(env))
        pipe.run(settle=120)
        assert any("interactive launch viz" in l for _, l in pipe.telemetry.events)


class TestStealingFromViz:
    def test_viz_donates_when_analytics_need_nodes(self):
        """The paper's intro scenario: analytics steal from visualization
        when it does not need its nodes.

        Setup: bonds starts one replica short (needs 5), no spares remain
        after viz launches with generous headroom.  The policy must pick
        viz as the donor.
        """
        env = Environment()
        stages = (
            StageSpec("helper", 2, model="tree"),
            StageSpec("bonds", 4, upstream="helper"),
            StageSpec("csym", 3, upstream="bonds"),
        )
        # staging 13: 9 allocated + 4 spare; viz takes all 4 spares.
        pipe = build(env, staging=13, steps=30, stages=stages)

        def ctl(env):
            yield env.timeout(20)
            yield pipe.launch_stage(VIZ_COMPONENT, units=4, upstream="bonds",
                                    name="viz")

        env.process(ctl(env))
        pipe.run(settle=300)
        actions = pipe.global_manager.actions_taken
        assert any(a.startswith("steal viz->bonds") for a in actions), actions
        assert pipe.containers["bonds"].units >= 5
        # Viz kept enough nodes to sustain the rate (headroom-only donation).
        viz = pipe.managers["viz"]
        assert viz.shortfall(15.0) == 0
        assert pipe.containers["viz"].units >= 2
