#!/usr/bin/env python3
"""Quickstart: run a managed I/O pipeline and watch the containers work.

Builds the paper's Figure 7 configuration — a LAMMPS-scale simulation on 256
nodes streaming into a Helper -> Bonds -> CSym analysis pipeline on 13
staging nodes — and lets the container runtime manage it.  Bonds cannot keep
up with its initial allocation; the global manager detects the bottleneck,
steals a node from the over-provisioned Helper, and the pipeline stabilizes.

Run:  python examples/quickstart.py
"""

from repro import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build


def main() -> None:
    env = Environment()
    spec = PipelineSpec(
        "quickstart",
        workload=WorkloadSpec(
            sim_nodes=256,         # simulation partition (Table II row 1)
            staging_nodes=13,      # staging partition, fully allocated
            spare=0,               # no spares: management must *steal*
            output_interval=15.0,  # the paper's stressed output cadence
            steps=40,
        ),
        builder=dict(seed=1),
    )
    pipe = build(env, spec)
    workload = pipe.driver.workload

    print(f"Simulating {workload.natoms:,} atoms "
          f"({workload.bytes_per_step / 2**20:.0f} MiB per output step) ...")
    pipe.run(settle=120)

    print("\nManagement actions taken by the global manager:")
    for t, label in pipe.telemetry.events:
        print(f"  t={t:7.1f}s  {label}")

    print("\nFinal container allocations:")
    for name, container in pipe.containers.items():
        state = "offline" if container.offline else (
            "active" if container.active else "standby")
        latency = container.latency.mean()
        latency_str = f"{latency:6.1f}s" if latency is not None else "   n/a"
        print(f"  {name:8s} {state:8s} nodes={container.units:2d} "
              f"completed={container.completions:3d} avg latency={latency_str}")

    series = pipe.telemetry.get("bonds", "latency_by_step")
    print("\nBonds container latency by timestep (s):")
    print("  " + " ".join(f"{v:.0f}" for v in series.values))

    print(f"\nTimesteps through the full pipeline: {len(pipe.end_to_end)}"
          f" / {workload.total_steps}")
    print(f"Application time lost to blocked I/O: {pipe.driver.blocked_time:.2f}s")


if __name__ == "__main__":
    main()
