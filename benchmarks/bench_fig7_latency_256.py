"""Figure 7: container latency, 256 simulation + 13 staging nodes, no spares.

Paper narrative reproduced here: Bonds is the bottleneck; with no spare
resources the global manager first decreases the over-provisioned LAMMPS
Helper, then increases Bonds with the stolen node(s).  Bonds latency settles
at the achievable minimum and the pipeline never blocks the application.

A managed and an unmanaged run are printed side by side; the unmanaged run
shows the latency growth the management actions prevent.
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build

from conftest import print_series, print_table


def run(managed=True, steps=40):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=steps)
    control = 30.0 if managed else 10_000_000.0
    pipe = build(env, PipelineSpec("fig7", workload=wl, builder=dict(
        seed=1, control_interval=control)))
    pipe.run(settle=900)
    return pipe


def test_fig7_managed_run(benchmark):
    pipe = benchmark.pedantic(run, kwargs={"managed": True}, rounds=1, iterations=1)
    series = pipe.telemetry.get("bonds", "latency_by_step")
    print_series(
        "Figure 7: Bonds container latency by timestep (managed)",
        list(zip(series.times, series.values)),
        fmt="{:.0f}:{:.1f}s",
    )
    print_table(
        "Management actions",
        ["t (s)", "action"],
        [[f"{t:.0f}", label] for t, label in pipe.telemetry.events],
    )
    benchmark.extra_info["actions"] = pipe.global_manager.actions_taken
    benchmark.extra_info["bonds_latency"] = list(series.values)

    # Shape criteria (DESIGN.md):
    actions = pipe.global_manager.actions_taken
    assert any(a.startswith("steal helper->bonds") for a in actions)
    assert pipe.containers["bonds"].units >= 5
    assert pipe.containers["helper"].units < 4
    # Bonds settles at its per-chunk service time — queue growth stopped.
    service = pipe.containers["bonds"].spec.cost.serial_time(pipe.driver.workload.natoms)
    assert series.values[-1] == pytest.approx(service, rel=0.05)
    # The donor still sustains the output rate after the decrease.
    helper_series = pipe.telemetry.get("helper", "latency_by_step")
    assert max(helper_series.values) < 15.0
    assert pipe.driver.blocked_time == 0.0


def test_fig7_unmanaged_baseline(benchmark):
    """Without management, Bonds latency grows without bound over the run."""
    pipe = benchmark.pedantic(run, kwargs={"managed": False}, rounds=1, iterations=1)
    series = pipe.telemetry.get("bonds", "latency_by_step")
    print_series(
        "Figure 7 baseline: Bonds latency by timestep (unmanaged)",
        list(zip(series.times, series.values)),
        fmt="{:.0f}:{:.1f}s",
    )
    benchmark.extra_info["bonds_latency"] = list(series.values)
    assert pipe.containers["bonds"].units == 4  # nothing intervened
    # Latency keeps climbing: the queue never drains at 4 replicas.
    assert series.values[-1] > series.values[0] * 1.5
    assert series.values[-1] > 70.0


def test_fig7_managed_beats_unmanaged(benchmark):
    def both():
        return run(managed=True), run(managed=False)

    managed, unmanaged = benchmark.pedantic(both, rounds=1, iterations=1)
    m = managed.telemetry.get("bonds", "latency_by_step").values
    u = unmanaged.telemetry.get("bonds", "latency_by_step").values
    print_table(
        "Figure 7 summary: final Bonds latency",
        ["Run", "final latency (s)", "mean latency (s)"],
        [
            ["managed", f"{m[-1]:.1f}", f"{sum(m) / len(m):.1f}"],
            ["unmanaged", f"{u[-1]:.1f}", f"{sum(u) / len(u):.1f}"],
        ],
    )
    assert m[-1] < u[-1]
