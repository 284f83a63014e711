"""Figure 5: time to decrease container size.

Paper finding: "the largest source of overhead is waiting for the replicas'
upstream DataTap writers to pause to avoid data loss."  The bench sweeps
decrease sizes and prints the breakdown, asserting writer-pause dominance.
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build

from conftest import print_table

SIZES = (1, 2, 4, 8)

#: bonds over-provisioned at 12 replicas, so it has room to shrink
FIG5_SPEC = PipelineSpec(
    "fig5",
    workload=WorkloadSpec(sim_nodes=256, staging_nodes=24, spare=0, steps=20),
    stages=(
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 12, upstream="helper"),
        StageSpec("csym", 3, upstream="bonds"),
    ),
    builder=dict(seed=0, control_interval=10_000),
)


def run_decrease_sweep(active_traffic=True):
    results = []
    for size in SIZES:
        env = Environment()
        pipe = build(env, FIG5_SPEC)

        def do(env):
            # Let data flow first so writers are genuinely active.
            yield env.timeout(40 if active_traffic else 1)
            yield pipe.global_manager.decrease("bonds", size)

        env.process(do(env))
        pipe.run(settle=120)
        record = pipe.tracer.of("decrease")[0]
        results.append((size, record))
    return results


def test_fig5_decrease_cost(benchmark):
    results = benchmark.pedantic(run_decrease_sweep, rounds=1, iterations=1)
    rows = []
    for size, record in results:
        pause = record.breakdown.get("writer_pause", 0.0)
        mgr = record.breakdown.get("manager", 0.0)
        rows.append([size, f"{record.total:.4f}", f"{pause:.4f}", f"{mgr:.6f}"])
    print_table(
        "Figure 5: Time to Decrease Container Size (seconds)",
        ["Replicas removed", "Total", "Writer pause", "Manager msgs"],
        rows,
    )
    benchmark.extra_info["series"] = [
        {"size": s, "total": r.total,
         "writer_pause": r.breakdown.get("writer_pause", 0)}
        for s, r in results
    ]
    for size, record in results:
        pause = record.breakdown.get("writer_pause", 0.0)
        mgr = record.breakdown.get("manager", 0.0)
        # The paper's headline: writer pause dominates the decrease.
        assert pause > 0.5 * record.total, f"size {size}: pause {pause} vs {record.total}"
        assert mgr < pause


def test_fig5_no_timestep_lost_during_decrease(benchmark):
    """The pause exists to avoid losing timesteps; verify it works."""

    def run():
        env = Environment()
        pipe = build(env, FIG5_SPEC)

        def do(env):
            yield env.timeout(40)
            yield pipe.global_manager.decrease("bonds", 6)

        env.process(do(env))
        pipe.run(settle=600)
        return pipe

    pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    assert pipe.containers["bonds"].completions == 20
    assert pipe.containers["bonds"].units == 6
