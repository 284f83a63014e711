#!/usr/bin/env python3
"""Interactive visualization: launch a container mid-run, then get squeezed.

The paper's introduction scenario: "running online I/O data visualization
with ParaView in one container while running analytics using VTK in another
container.  In this scenario, a dynamic requirement for additional resources
to run the analytics can be met by 'stealing' resources from the
visualization container, if it does not need them."

Timeline of this demo:

  t=20s   the scientist launches a viz container on the 4 spare staging
          nodes, reading the Bonds output ("add this filter now while I'm
          looking at the output")
  t~60s   the Bonds analytics container falls behind its SLA; no spares
          remain; the global manager steals a node from the visualization
          container — which has headroom — and Bonds recovers
  end     both containers are healthy: analytics at full rate, viz still
          fast enough for its own needs

Run:  python examples/interactive_visualization.py
"""

from repro import Environment
from repro.smartpointer.component import VIZ_COMPONENT
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build


def main() -> None:
    env = Environment()
    spec = PipelineSpec(
        "interactive",
        workload=WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=4, steps=30),
        stages=(
            StageSpec("helper", 2, model="tree"),
            StageSpec("bonds", 4, upstream="helper"),
            StageSpec("csym", 3, upstream="bonds"),
        ),
        builder=dict(seed=0),
    )
    pipe = build(env, spec)
    workload = pipe.driver.workload

    def user(env):
        yield env.timeout(20)
        print("t=20s  [user] launching ParaView-style viz on the spare nodes ...")
        yield pipe.launch_stage(VIZ_COMPONENT, units=4, upstream="bonds",
                                name="viz")
        print(f"t={env.now:.0f}s  [user] viz running on "
              f"{pipe.containers['viz'].units} nodes, reading Bonds output")

    env.process(user(env))
    pipe.run(settle=300)

    print("\nGlobal manager timeline:")
    for t, label in pipe.telemetry.events:
        print(f"  t={t:7.1f}s  {label}")

    print("\nFinal state:")
    for name in ("helper", "bonds", "csym", "viz"):
        container = pipe.containers[name]
        manager = pipe.managers[name]
        sustained = "sustains rate" if manager.shortfall(15.0) == 0 else "BEHIND"
        print(f"  {name:7s} nodes={container.units}  "
              f"rendered/analyzed={container.completions:3d}  {sustained}")

    frames = pipe.containers["viz"].completions
    print(f"\nThe scientist saw {frames} rendered frames; the analytics "
          f"pipeline analyzed all {workload.total_steps} timesteps; "
          f"application blocked {pipe.driver.blocked_time:.2f}s.")


if __name__ == "__main__":
    main()
