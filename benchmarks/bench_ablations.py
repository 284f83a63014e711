"""Ablations of the design choices DESIGN.md calls out.

1. **Pull scheduling** (DataStager) vs unscheduled pulls — scheduled pulls
   bound concurrent RDMA traffic into the staging area.
2. **Writer pause during decrease** (strict) vs no-pause (aggressive, the
   'less aggressive consistency' the paper leaves to future work) — strict
   never loses a timestep; skipping the pause is faster but loses the
   safety argument (we quantify the pause cost it saves).
3. **Bottleneck policy**: the paper's longest-average-latency policy vs the
   queue-derivative policy — reaction time to the Figure 7 bottleneck.
4. **aprun relaunch** for MPI-model containers vs round-robin spawning —
   the launch artifact dominates MPI resizes.
"""

import pytest

from repro.simkernel import Environment
from repro.containers.policy import LatencyPolicy, QueueDerivativePolicy
from repro.smartpointer.costs import ComputeModel
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build


def _spec(staging_nodes, steps, stages, **builder):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=staging_nodes, spare=0, steps=steps)
    return PipelineSpec("ablation", workload=wl, stages=stages, builder=builder)


def _three_stages(bonds_units, bonds_model=ComputeModel.ROUND_ROBIN):
    return (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", bonds_units, model=bonds_model.value, upstream="helper"),
        StageSpec("csym", 3, upstream="bonds"),
    )

from conftest import print_table


def fig7_pipe(policy=None, use_pull_scheduler=True, steps=40, model=ComputeModel.ROUND_ROBIN):
    env = Environment()
    stages = _three_stages(4, model) + (StageSpec("cna", 2, upstream="bonds", standby=True),)
    spec = _spec(13, steps, stages, seed=1, use_pull_scheduler=use_pull_scheduler)
    pipe = build(env, spec, policy=policy)
    pipe.run(settle=600)
    return pipe


class TestPullScheduling:
    def test_scheduler_bounds_concurrent_pulls(self, benchmark):
        def run():
            return fig7_pipe(use_pull_scheduler=True, steps=15)

        pipe = benchmark.pedantic(run, rounds=1, iterations=1)
        # The builder shares one scheduler across the LAMMPS->Helper edge.
        sched = pipe.driver.pull_scheduler
        print_table(
            "Ablation 1: DataStager pull scheduling",
            ["pulls admitted", "aggregate wait (s)"],
            [[sched.pulls_admitted, f"{sched.total_wait:.3f}"]],
        )
        assert sched.pulls_admitted == 15 * 4  # every fragment pulled
        assert pipe.containers["helper"].completions == 15

    def test_unscheduled_still_correct_but_unbounded(self, benchmark):
        def run():
            return fig7_pipe(use_pull_scheduler=False, steps=15)

        pipe = benchmark.pedantic(run, rounds=1, iterations=1)
        assert pipe.driver.pull_scheduler is None
        assert pipe.containers["helper"].completions == 15


class TestWriterPauseConsistency:
    def test_strict_pause_never_loses_timesteps(self, benchmark):
        """Decrease with the pause protocol: all 30 steps analyzed."""

        def run():
            env = Environment()
            pipe = build(env, _spec(24, 30, _three_stages(12), seed=0,
                                    control_interval=10_000))

            def ctl(env):
                for _ in range(3):
                    yield env.timeout(60)
                    yield pipe.global_manager.decrease("bonds", 2)

            env.process(ctl(env))
            pipe.run(settle=600)
            return pipe

        pipe = benchmark.pedantic(run, rounds=1, iterations=1)
        assert pipe.containers["bonds"].units == 6
        assert pipe.containers["bonds"].completions == 30  # zero loss
        pauses = sum(r.breakdown.get("writer_pause", 0)
                     for r in pipe.tracer.of("decrease"))
        print_table(
            "Ablation 2: strict writer pause",
            ["decreases", "total pause cost (s)", "timesteps lost"],
            [[3, f"{pauses:.3f}", 0]],
        )
        assert pauses > 0

    def test_pause_cost_is_small_vs_pipeline_time(self, benchmark):
        """The consistency guarantee costs well under one output interval
        per decrease — the 'transient' of Figure 7, not a structural cost."""

        def run():
            env = Environment()
            pipe = build(env, _spec(24, 20, _three_stages(12), seed=0,
                                    control_interval=10_000))

            def ctl(env):
                yield env.timeout(60)
                yield pipe.global_manager.decrease("bonds", 4)

            env.process(ctl(env))
            pipe.run(settle=600)
            return pipe.tracer.of("decrease")[0]

        record = benchmark.pedantic(run, rounds=1, iterations=1)
        assert record.breakdown["writer_pause"] < 15.0


class TestPolicyComparison:
    def test_latency_vs_queue_derivative_reaction(self, benchmark):
        def run():
            latency = fig7_pipe(policy=LatencyPolicy(), steps=30)
            queue = fig7_pipe(policy=QueueDerivativePolicy(growth_threshold=0.001),
                              steps=30)
            return latency, queue

        latency_pipe, queue_pipe = benchmark.pedantic(run, rounds=1, iterations=1)

        def first_action_time(pipe):
            return pipe.telemetry.events[0][0] if pipe.telemetry.events else None

        rows = []
        for name, pipe in (("latency (paper)", latency_pipe),
                           ("queue-derivative", queue_pipe)):
            series = pipe.telemetry.get("bonds", "latency_by_step")
            rows.append([
                name,
                f"{first_action_time(pipe):.0f}" if first_action_time(pipe) else "-",
                pipe.containers["bonds"].units,
                f"{series.values[-1]:.1f}",
            ])
        print_table(
            "Ablation 3: policy comparison (Figure 7 scenario)",
            ["policy", "first action (s)", "final bonds units", "final latency (s)"],
            rows,
        )
        # Both converge to a sustainable allocation.
        assert latency_pipe.containers["bonds"].units >= 5
        assert queue_pipe.containers["bonds"].units >= 5
        assert latency_pipe.driver.blocked_time == 0.0
        assert queue_pipe.driver.blocked_time == 0.0


class TestAprunArtifact:
    def test_mpi_resize_dominated_by_launch(self, benchmark):
        """RR spawning vs MPI teardown+aprun: the paper's motivation for
        preferring stream-style components for dynamic management."""

        def run():
            results = {}
            for model in (ComputeModel.ROUND_ROBIN, ComputeModel.PARALLEL):
                env = Environment()
                pipe = build(env, _spec(20, 4, _three_stages(4, model), seed=3,
                                        control_interval=10_000))

                def do(env, pipe=pipe):
                    yield env.timeout(1)
                    yield pipe.global_manager.increase("bonds", 4)

                env.process(do(env))
                pipe.run(settle=120)
                results[model] = pipe.tracer.of("increase")[0]
            return results

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rr = results[ComputeModel.ROUND_ROBIN]
        mpi = results[ComputeModel.PARALLEL]
        print_table(
            "Ablation 4: resize cost by compute model (+4 nodes)",
            ["model", "total (s)", "launch (s)", "protocol (s)"],
            [
                ["round-robin", f"{rr.total:.3f}", "0", f"{rr.total:.3f}"],
                ["MPI (aprun)", f"{mpi.total:.3f}",
                 f"{mpi.breakdown.get('launch', 0):.2f}",
                 f"{mpi.total - mpi.breakdown.get('launch', 0):.3f}"],
            ],
        )
        assert mpi.total > rr.total * 5
        assert mpi.breakdown.get("launch", 0) >= 3.0
