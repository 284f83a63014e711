"""Generality check: the container runtime managing a different science code.

The paper's "current work" targets S3D flame-front tracking.  This bench
runs the S3D stage set (reduce -> front -> track) under the same management
stack and verifies the same qualitative behaviours carry over: bottleneck
detection, spare grants, stateful resizes, zero application blocking.
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build

from conftest import print_series, print_table


def s3d_stages(front_units):
    """reduce -> front -> track from the S3D component library."""
    return (
        StageSpec("reduce", 3, model="tree", library="s3d"),
        StageSpec("front", front_units, upstream="reduce", library="s3d"),
        StageSpec("track", 2, upstream="front", library="s3d"),
    )


def run(steps=30, spare=2):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=9 + spare, spare=spare,
                      steps=steps)
    pipe = build(env, PipelineSpec("s3d", workload=wl, stages=s3d_stages(4),
                                   builder=dict(seed=0)))
    pipe.run(settle=300)
    return pipe


def test_s3d_pipeline_managed(benchmark):
    pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    series = pipe.telemetry.get("front", "latency_by_step")
    print_series(
        "S3D flame-front stage latency by timestep",
        list(zip(series.times, series.values)),
        fmt="{:.0f}:{:.1f}s",
    )
    print_table(
        "Management actions",
        ["t (s)", "action"],
        [[f"{t:.0f}", label] for t, label in pipe.telemetry.events],
    )
    # The front stage (needs 5 units) starts with 4: the runtime fixes it.
    assert "increase front +1" in pipe.global_manager.actions_taken
    assert pipe.containers["front"].units == 5
    # The stateful tracker processed everything with zero app impact.
    assert pipe.containers["track"].completions == 30
    assert pipe.driver.blocked_time == 0.0
    # Output provenance reflects the S3D chain.
    track_files = [f for f in pipe.fs.files if f.name.startswith("track.")]
    assert track_files
    assert track_files[0].attributes["provenance"] == ["reduce", "front", "track"]


def test_s3d_stateful_resize_migrates_tracker(benchmark):
    def run_resize():
        pipe = run(steps=20, spare=3)
        return pipe

    pipe = benchmark.pedantic(run_resize, rounds=1, iterations=1)

    # Force an explicit grow of the stateful tracking stage and check the
    # migration round appears in the protocol trace.
    env2 = Environment()
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=12, spare=2, steps=10)
    pipe2 = build(env2, PipelineSpec("s3d", workload=wl, stages=s3d_stages(5),
                                     builder=dict(seed=0, control_interval=10_000)))

    def ctl(env):
        yield env.timeout(30)
        yield pipe2.global_manager.increase("track", 1)

    env2.process(ctl(env2))
    pipe2.run(settle=200)
    record = [r for r in pipe2.tracer.of("increase") if r.container == "track"][0]
    print_table(
        "Stateful S3D resize breakdown",
        ["category", "seconds"],
        [[k, f"{v:.4f}"] for k, v in sorted(record.breakdown.items())],
    )
    assert record.breakdown.get("state_migration", 0.0) > 0
