"""Tests for stateful-analytics support in the resize protocols."""

import pytest

from repro import Environment
from repro.evpath import Message, MessageType
from repro.smartpointer.component import (
    FRAGMENTS_COMPONENT,
    SMARTPOINTER_COMPONENTS,
    ComponentSpec,
)
from repro.smartpointer.costs import ComputeModel
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build


def _build(env, steps, stages):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=16, spare=3, steps=steps)
    return build(env, PipelineSpec("stateful", workload=wl, stages=stages,
                                   builder=dict(seed=0, control_interval=10_000)))


class TestSpecStateModel:
    def test_stateless_components_have_no_state(self):
        for spec in SMARTPOINTER_COMPONENTS.values():
            assert not spec.stateful
            assert spec.state_bytes(1_000_000) == 0.0

    def test_fragments_state_scales_with_atoms(self):
        small = FRAGMENTS_COMPONENT.state_bytes(1_000)
        big = FRAGMENTS_COMPONENT.state_bytes(1_000_000)
        assert big == pytest.approx(1000 * small)
        assert small == pytest.approx(8_000)  # 8 B/atom labeling


def build_with_fragments(env, fragments_units=3, steps=12):
    """helper -> bonds -> fragments pipeline (the CTH-style chain)."""
    pipe = _build(env, steps, (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 6, upstream="helper"),
    ))

    def launch(env):
        yield env.timeout(1)
        yield pipe.launch_stage(FRAGMENTS_COMPONENT, units=fragments_units,
                                upstream="bonds", name="fragments")

    env.process(launch(env))
    return pipe


class TestStatefulResize:
    def test_increase_migrates_state(self):
        env = Environment()
        pipe = build_with_fragments(env, fragments_units=2)

        def ctl(env):
            yield env.timeout(60)
            yield pipe.global_manager.increase("fragments", 1)

        env.process(ctl(env))
        pipe.run(settle=300)
        # Find the fragments increase (the launch itself is also an increase
        # but has no donors yet, so no state moves there).
        records = [r for r in pipe.control_trace.of("increase")
                   if r.subject == "fragments"]
        assert len(records) == 2
        launch_record, grow_record = records
        assert "state_migration" not in launch_record.breakdown
        assert grow_record.breakdown["state_migration"] > 0
        assert grow_record.message_counts["state_migration"] == 1

    def test_decrease_merges_state_into_survivors(self):
        env = Environment()
        pipe = build_with_fragments(env, fragments_units=3)

        def ctl(env):
            yield env.timeout(60)
            yield pipe.global_manager.decrease("fragments", 2)

        env.process(ctl(env))
        pipe.run(settle=300)
        record = [r for r in pipe.control_trace.of("decrease")
                  if r.subject == "fragments"][0]
        assert record.breakdown["state_migration"] > 0
        assert record.message_counts["state_migration"] == 2
        assert pipe.containers["fragments"].units == 1

    def test_stateless_resize_has_no_migration(self):
        env = Environment()
        pipe = _build(env, 8, (
            StageSpec("helper", 4, model="tree"),
            StageSpec("bonds", 6, upstream="helper"),
            StageSpec("csym", 3, upstream="bonds"),
        ))

        def ctl(env):
            yield env.timeout(30)
            yield pipe.global_manager.increase("bonds", 2)
            yield pipe.global_manager.decrease("bonds", 2)

        env.process(ctl(env))
        pipe.run(settle=300)
        for record in pipe.control_trace.records:
            if record.protocol not in ("increase", "decrease", "replace", "offline"):
                continue
            assert "state_migration" not in record.breakdown

    def test_state_migration_cost_scales_with_state(self):
        """Bigger state, longer migration: the cost is real data movement."""
        def run(ratio):
            spec = ComponentSpec(
                name="fragments",
                complexity="O(n)",
                compute_models=(ComputeModel.ROUND_ROBIN,),
                dynamic_branching=False,
                cost=FRAGMENTS_COMPONENT.cost,
                output_ratio=0.15,
                stateful=True,
                state_ratio=ratio,
            )
            env = Environment()
            pipe = build_with_fragments(env, fragments_units=2)
            # Swap the spec post-launch (same name, bigger state).
            def ctl(env):
                yield env.timeout(60)
                container = pipe.containers["fragments"]
                object.__setattr__(container, "spec", spec)
                yield pipe.global_manager.increase("fragments", 1)

            env.process(ctl(env))
            pipe.run(settle=300)
            record = [r for r in pipe.control_trace.of("increase")
                      if r.subject == "fragments"][-1]
            return record.breakdown.get("state_migration", 0.0)

        assert run(4.0) > run(0.5)

    def test_fragments_pipeline_processes_everything(self):
        env = Environment()
        pipe = build_with_fragments(env, fragments_units=3, steps=12)
        pipe.run(settle=600)
        assert pipe.containers["fragments"].completions == 12
        frag_files = [f for f in pipe.fs.files if f.name.startswith("fragments.")]
        assert frag_files
        assert frag_files[0].attributes["provenance"] == ["helper", "bonds", "fragments"]
