"""Tests for mid-run container launches and the visualization scenario."""

import pytest

from repro import Environment
from repro.faults import FaultPlan
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

    def test_launched_stage_reports_through_overlay(self):
        """On ``monitoring: overlay`` a launched stage joins the overlay like
        a built one: its manager's reports travel the tree to the global
        manager instead of going direct."""
        env = Environment()
        pipe = build(env, staging=17, monitoring="overlay")
        overlay = pipe.monitoring_overlay
        via_tree = []
        ingest = overlay.on_report
        overlay.on_report = lambda msg: (via_tree.append(msg.payload["container"]),
                                         ingest(msg))
        direct = []
        send = pipe.messenger.send

        def spy_send(src, to, message):
            if message.mtype.value == "metric_report":
                direct.append(message.payload["container"])
            return send(src, to, message)

        pipe.messenger.send = spy_send

        def ctl(env):
            yield env.timeout(50)
            yield pipe.launch_stage(VIZ_COMPONENT, units=1, upstream="bonds",
                                    name="viz")

        env.process(ctl(env))
        pipe.run(settle=120)
        assert pipe.managers["viz"].send_report is not None
        assert "viz" in via_tree and "bonds" in via_tree
        assert direct == []  # no manager, built or launched, reported direct


class TestLaunchedStageSettings:
    def test_launched_replica_crash_is_replaced(self):
        """A stage launched on a fault-tolerant pipeline gets the settings of
        a built one: its replicas hold leases, so a crash is detected and
        REPLACEd from the spare pool, and the upstream keeps custody of what
        it sent, so the chunk in service is redelivered."""
        env = Environment()
        # 4 spares: viz takes 2, recovery has 2 left.
        pipe = build(env, staging=17, fault_tolerance=True, control_interval=10_000)
        victims = []

        def ctl(env):
            yield env.timeout(50)
            viz = yield pipe.launch_stage(VIZ_COMPONENT, units=2, upstream="bonds",
                                          name="viz")
            victim = viz.replicas[-1]
            while victim.current_chunk is None:
                yield env.timeout(0.25)
            victims.append(victim)
            plan = FaultPlan(seed=1)
            plan.node_crash(env.now, victim.node.node_id)
            pipe.arm_faults(plan)

        env.process(ctl(env))
        assert pipe.run(settle=200)
        replaced = [r for r in pipe.recovery.replacements
                    if r["type"] == "replace" and r["container"] == "viz"]
        assert len(replaced) == 1
        assert replaced[0]["method"] == "spare"
        assert replaced[0]["redelivered"] == 1
        viz = pipe.containers["viz"]
        assert victims[0] not in viz.replicas
        assert viz.units == 2
        delivered = sorted(ts for _, sink, ts in pipe.exit_log if sink == "viz")
        assert delivered == list(range(pipe.driver.workload.total_steps))


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
