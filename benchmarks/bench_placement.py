"""Ablation: topology-aware container placement (future work, Section V).

Quantifies the paper's conjecture that placing and co-locating containers
with the interconnect topology in mind reduces simulation-to-analytics data
movement: hop-weighted bytes moved per step and measured per-chunk transfer
latency, naive vs topology-aware, on a Franklin-like torus.
"""

import pytest

from repro.simkernel import Environment
from repro.cluster import Machine
from repro.cluster.machine import torus_3d
from repro.containers.placement import (
    NaivePlacement,
    PlacementProblem,
    TopologyAwarePlacement,
)
from repro.spec import PipelineSpec, WorkloadSpec, build

from conftest import print_table


def plan_costs(side=6, helper=4, bonds=6, csym=4):
    import numpy as np

    env = Environment()
    machine = Machine(env, num_nodes=side**3, topology=torus_3d((side, side, side)))
    # Simulation I/O nodes in one region; the staging allocation is an
    # arbitrary scatter of nodes across the torus, as batch schedulers
    # actually hand them out — first-fit over that scatter is the baseline.
    anchors = machine.nodes[:4]
    rng = np.random.default_rng(42)
    pool = [n for n in machine.nodes[4:]]
    candidates = [pool[i] for i in rng.permutation(len(pool))[:60]]
    gib = 2**30
    problem = PlacementProblem(
        stages={"helper": helper, "bonds": bonds, "csym": csym},
        edges=[
            ("sim", "helper", 0.26 * gib),
            ("helper", "bonds", 0.26 * gib),
            ("bonds", "csym", 0.37 * gib),
        ],
        candidate_nodes=candidates,
        anchors={"sim": anchors},
    )
    naive = NaivePlacement().plan(machine, problem)
    aware = TopologyAwarePlacement().plan(machine, problem)
    return naive, aware


def test_placement_reduces_hop_weighted_movement(benchmark):
    naive, aware = benchmark.pedantic(plan_costs, rounds=1, iterations=1)
    gib = 2**30
    print_table(
        "Placement ablation: hop-weighted data movement per step",
        ["planner", "GiB-hops/step", "vs naive"],
        [
            ["naive (first-fit)", f"{naive.cost / gib:.2f}", "1.00x"],
            ["topology-aware", f"{aware.cost / gib:.2f}",
             f"{aware.cost / naive.cost:.2f}x"],
        ],
    )
    benchmark.extra_info["naive_cost"] = naive.cost
    benchmark.extra_info["aware_cost"] = aware.cost
    assert aware.cost < naive.cost


def test_placement_end_to_end_latency(benchmark):
    """Measured in-pipeline: topology placement must not hurt, and on a big
    enough torus it shaves transfer hops off the pipeline latency."""

    def run(placement):
        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=10)
        pipe = build(env, PipelineSpec("placement", workload=wl, builder=dict(
            seed=0, placement=placement, control_interval=10_000)))
        pipe.run(settle=300)
        series = pipe.telemetry.get("helper", "latency_by_step")
        return sum(series.values) / len(series.values), pipe

    def both():
        return run("naive"), run("topology")

    (naive_latency, naive_pipe), (aware_latency, aware_pipe) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    print_table(
        "Placement ablation: mean helper stage latency",
        ["planner", "latency (s)"],
        [["naive", f"{naive_latency:.4f}"], ["topology", f"{aware_latency:.4f}"]],
    )
    assert aware_pipe.containers["csym"].completions == 10
    # Must never be worse by more than measurement noise.
    assert aware_latency <= naive_latency * 1.01
