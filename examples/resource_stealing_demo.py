#!/usr/bin/env python3
"""Resource stealing and the dynamic branch, narrated.

Runs the Figure 7 configuration with a crack event injected at timestep 12.
Two management behaviours compose during the run:

1. **Stealing** — Bonds is the bottleneck and there are no spares, so the
   global manager shrinks the over-provisioned Helper and grows Bonds.
2. **Dynamic branching** — when CSym sees the crack marker it retires, CNA
   activates on Bonds' output, and the freed CSym nodes let the manager
   grow CNA to the rate it needs (CNA is the most expensive action in
   Table I, which is exactly why it only runs after a crack).

Run:  python examples/resource_stealing_demo.py
"""

from repro import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build


def main() -> None:
    env = Environment()
    spec = PipelineSpec(
        "fig7",
        workload=WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=30),
        builder=dict(seed=2, crack_step=12),
    )
    pipe = build(env, spec)
    print("Running 30 output steps; crack forms at step 12 ...\n")
    pipe.run(settle=300)

    print("Global manager timeline:")
    for t, label in pipe.telemetry.events:
        print(f"  t={t:7.1f}s  {label}")

    print("\nPer-container unit history (from monitoring):")
    for name in ("helper", "bonds", "csym", "cna"):
        series = pipe.telemetry.get(name, "units")
        if series is None:
            continue
        changes = [(series.times[0], series.values[0])]
        for t, v in zip(series.times, series.values):
            if v != changes[-1][1]:
                changes.append((t, v))
        history = " -> ".join(f"{int(v)}@{t:.0f}s" for t, v in changes)
        print(f"  {name:8s} {history}")

    print("\nAnalysis coverage:")
    csym_done = pipe.containers["csym"].completions
    cna_done = pipe.containers["cna"].completions
    print(f"  CSym analyzed {csym_done} pre-crack timesteps, then retired")
    print(f"  CNA analyzed {cna_done} post-crack timesteps "
          f"on {pipe.containers['cna'].units} nodes")

    cna_files = [f for f in pipe.fs.files if f.name.startswith("cna.ts")]
    if cna_files:
        print(f"  first CNA output: {cna_files[0].name} "
              f"provenance={cna_files[0].attributes['provenance']}")

    print(f"\nApplication blocked time: {pipe.driver.blocked_time:.2f}s")


if __name__ == "__main__":
    main()
