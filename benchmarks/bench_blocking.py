"""The headline claim, quantified: containers prevent application blocking.

The paper's abstract promises that containers "prevent application blocking
by taking unneeded components offline".  This bench creates the pathology on
purpose — Table II's 1024-node workload with realistically tight staging
buffers and a hopeless Bonds allocation — and runs it with management off
and on:

* **unmanaged**: back-pressure propagates from Bonds through Helper into
  the simulation's own output buffers; LAMMPS wedges mid-run and never
  finishes (the simulation would burn its allocation doing nothing);
* **managed**: the runtime grants spares, predicts the overflow, prunes
  Bonds and its dependents, and the simulation completes every timestep
  with zero blocked seconds.
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build

from conftest import print_table

MIB = 2**20


def run(managed: bool, steps: int = 60):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=1024, staging_nodes=24, spare=4, steps=steps)
    pipe = build(env, PipelineSpec("blocking", workload=wl, builder=dict(
        seed=1,
        control_interval=30.0 if managed else 1e9,
        stage_buffer_bytes=480 * MIB,   # ~1 chunk of slack per stage writer
        sim_buffer_bytes=3 * 68 * MIB,  # 3 output fragments per sim writer
    )))
    finished = pipe.run(settle=300)
    return pipe, finished


def test_blocking_prevented_by_management(benchmark):
    def both():
        return run(False), run(True)

    (unmanaged, unmanaged_done), (managed, managed_done) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    rows = []
    for label, pipe, finished in (("unmanaged", unmanaged, unmanaged_done),
                                  ("managed", managed, managed_done)):
        rows.append([
            label,
            "yes" if finished else "NO (wedged)",
            pipe.driver.steps_emitted,
            f"{pipe.driver.total_blocked_time:.0f}",
        ])
    print_table(
        "Application blocking, 1024-node workload with tight buffers",
        ["run", "simulation finished", "steps emitted", "blocked seconds"],
        rows,
    )
    benchmark.extra_info["unmanaged_blocked"] = unmanaged.driver.total_blocked_time
    benchmark.extra_info["managed_blocked"] = managed.driver.total_blocked_time

    # Unmanaged: the application wedges and never completes its run.
    assert not unmanaged_done
    assert unmanaged.driver.is_blocked
    assert unmanaged.driver.total_blocked_time > 100.0
    assert unmanaged.driver.steps_emitted < 60

    # Managed: offline fallback keeps the application at full speed.
    assert managed_done
    assert managed.driver.steps_emitted == 60
    assert managed.driver.total_blocked_time == 0.0
    assert managed.containers["bonds"].offline


def test_managed_run_stays_on_schedule_past_the_wedge_point(benchmark):
    """At the step where the unmanaged run wedges, the managed run is still
    emitting on its nominal cadence — the spare grant at t=60 bought the
    slack, and the offline prune removed the pathology for good."""
    def both():
        return run(False), run(True)

    (unmanaged, _), (managed, _) = benchmark.pedantic(both, rounds=1, iterations=1)
    wedge_step = unmanaged.driver.steps_emitted  # first step that never emitted
    nominal = 15.0 * (wedge_step + 1)
    managed_time = managed.driver.emit_times[wedge_step]
    offline_time = next(
        t for t, l in managed.telemetry.events if "offline bonds" in l
    )
    print_table(
        "Timing at the unmanaged wedge point",
        ["wedge step", "nominal emit (s)", "managed emit (s)", "managed offline (s)"],
        [[wedge_step, f"{nominal:.0f}", f"{managed_time:.0f}", f"{offline_time:.0f}"]],
    )
    # The managed run emitted that step within one write-phase of schedule.
    assert managed_time <= nominal + 1.0
    # And every subsequent step too (no hidden stall anywhere in the run).
    for step, emit_time in enumerate(managed.driver.emit_times):
        assert emit_time <= 15.0 * (step + 1) + 1.0
