"""Figure 8: container latency, 512 simulation + 24 staging nodes (4 spare).

Paper narrative: the Bonds container converges toward the ideal rate after
the spares are granted; "there were insufficient resources but the
simulation completed before any queue overflows occurred that would have
blocked the pipeline."
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build

from conftest import print_series, print_table


def run(steps=40):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=512, staging_nodes=24, spare=4, steps=steps)
    pipe = build(env, PipelineSpec("fig8", workload=wl, builder=dict(seed=1)))
    pipe.run(settle=600)
    return pipe


def test_fig8_spares_granted_and_no_overflow(benchmark):
    pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    series = pipe.telemetry.get("bonds", "latency_by_step")
    print_series(
        "Figure 8: Bonds container latency by timestep (512 sim, 24 staging)",
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

    # Spares were granted to the bottleneck.
    assert "increase bonds +4" in pipe.global_manager.actions_taken
    assert pipe.containers["bonds"].units == 13
    # Still genuinely insufficient...
    assert pipe.managers["bonds"].shortfall(15.0) > 0
    # ...but no overflow, no blocking, no offline before the run completed.
    assert pipe.driver.blocked_time == 0.0
    assert not any(c.offline for c in pipe.containers.values())
    for container in pipe.containers.values():
        for replica in container.replicas:
            if not replica.passive:
                assert replica.queue.overflow_count == 0

    # Near-ideal: per-step latency stays within 10% of the service time
    # (the achievable minimum) for the whole run.
    service = pipe.containers["bonds"].spec.cost.serial_time(pipe.driver.workload.natoms)
    assert series.values[-1] < service * 1.10


def test_fig8_buffer_occupancy_stays_low(benchmark):
    """Queue overflow never became imminent (contrast with Figure 9)."""
    pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    occ = pipe.telemetry.get("bonds", "buffer_occupancy")
    print_series(
        "Figure 8: upstream buffer occupancy feeding Bonds",
        list(zip(occ.times, occ.values)),
        fmt="{:.0f}:{:.2f}",
    )
    assert max(occ.values) < 0.35  # below the offline threshold throughout
