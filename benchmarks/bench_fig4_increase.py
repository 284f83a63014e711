"""Figure 4: time to increase container size.

The paper's findings, which this bench reproduces as shape criteria:

1. cost grows with the number of replicas added (x-axis);
2. the dominant term is the intra-container communication — the metadata
   exchanges that wire each new replica to its peers and upstream writers;
3. point-to-point messages between the container manager and the global
   manager are nearly negligible;
4. the aprun launch cost (3-27 s, for MPI-model components) is reported
   separately and factored out, exactly as the paper does.
"""

import pytest

from repro.simkernel import Environment
from repro.smartpointer.costs import ComputeModel
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build


def _spec(staging_nodes, bonds_model, seed):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=staging_nodes, spare=0, steps=4)
    stages = (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 4, model=bonds_model.value, upstream="helper"),
        StageSpec("csym", 3, upstream="bonds"),
    )
    return PipelineSpec("fig4", workload=wl, stages=stages,
                        builder=dict(seed=seed, control_interval=10_000))

from conftest import print_table

SIZES = (1, 2, 4, 8, 16)


def run_increase_sweep(model=ComputeModel.ROUND_ROBIN):
    results = []
    for size in SIZES:
        env = Environment()
        pipe = build(env, _spec(13 + 16, model, seed=0))

        def do(env):
            yield env.timeout(1)
            yield pipe.global_manager.increase("bonds", size)

        env.process(do(env))
        pipe.run(settle=120)
        record = pipe.tracer.of("increase")[0]
        results.append((size, record))
    return results


def test_fig4_increase_cost(benchmark):
    results = benchmark.pedantic(run_increase_sweep, rounds=1, iterations=1)
    rows = []
    for size, record in results:
        intra = record.breakdown.get("intra_container", 0.0)
        mgr = record.breakdown.get("manager", 0.0)
        rows.append([size, f"{record.total:.4f}", f"{intra:.4f}", f"{mgr:.6f}"])
    print_table(
        "Figure 4: Time to Increase Container Size (seconds, aprun excluded)",
        ["Replicas added", "Total", "Intra-container", "Manager msgs"],
        rows,
    )
    benchmark.extra_info["series"] = [
        {"size": s, "total": r.total, "intra": r.breakdown.get("intra_container", 0),
         "manager": r.breakdown.get("manager", 0)}
        for s, r in results
    ]

    totals = [r.total for _, r in results]
    intras = [r.breakdown.get("intra_container", 0.0) for _, r in results]
    managers = [r.breakdown.get("manager", 0.0) for _, r in results]
    # (1) cost grows with the size of the increase
    assert totals == sorted(totals)
    assert totals[-1] > totals[0] * 4
    # (2) intra-container communication dominates
    for intra, mgr, total in zip(intras, managers, totals):
        assert intra > 0.5 * total
        # (3) manager messages nearly negligible
        assert mgr < 0.1 * intra


def test_fig4_aprun_dwarfs_protocol_for_mpi_model(benchmark):
    """The paper: aprun (3-27 s) 'completely dwarfs all other measurements'.
    For a PARALLEL (MPI) component the relaunch is charged separately."""

    def run():
        env = Environment()
        pipe = build(env, _spec(13 + 8, ComputeModel.PARALLEL, seed=7))

        def do(env):
            yield env.timeout(1)
            yield pipe.global_manager.increase("bonds", 4)

        env.process(do(env))
        pipe.run(settle=120)
        return pipe.tracer.of("increase")[0]

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    launch = record.breakdown.get("launch", 0.0)
    intra = record.breakdown.get("intra_container", 0.0)
    print_table(
        "Figure 4 (MPI model): aprun relaunch vs protocol",
        ["aprun (s)", "intra-container (s)", "ratio"],
        [[f"{launch:.2f}", f"{intra:.4f}", f"{launch / max(intra, 1e-9):.0f}x"]],
    )
    assert 3.0 <= launch <= 27.0
    assert launch > 10 * intra  # dwarfs everything else
