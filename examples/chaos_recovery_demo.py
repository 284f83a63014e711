#!/usr/bin/env python3
"""Chaos recovery: a crack-detection run survives a staging-node crash.

The Figure 7 configuration (256 simulation nodes, Helper -> Bonds -> CSym
with CNA on standby) runs with fault tolerance enabled: replicas hold
heartbeat leases with their local manager, local-manager liveness rides
the monitoring reports to the global manager, and upstream DataTap
writers keep custody of every chunk until its derived output has safely
left the consumer's node.

At t=200s a seeded FaultPlan kills the staging node hosting one Bonds
replica.  Watch the recovery: the silent heartbeat lease convicts the
replica within 5 seconds, the REPLACE protocol respawns it on a spare
node, the upstream writer redelivers the chunks that died with the node,
and the pipeline finishes with every timestep delivered exactly once.

Run:  PYTHONPATH=src python examples/chaos_recovery_demo.py
"""

from repro import Environment
from repro.faults import FaultPlan
from repro.perf.registry import REGISTRY
from repro.spec import PipelineSpec, WorkloadSpec, build


def main() -> None:
    env = Environment()
    spec = PipelineSpec(
        "chaos",
        workload=WorkloadSpec(sim_nodes=256, staging_nodes=16, spare=3, steps=40),
        builder=dict(seed=1, control_interval=30.0, fault_tolerance=True),
    )
    pipe = build(env, spec)
    workload = pipe.driver.workload

    victim = pipe.containers["bonds"].replicas[1]
    print(f"armed: node {victim.node.node_id} (hosting {victim.name}) "
          f"will crash at t=200s\n")
    plan = FaultPlan(seed=11)
    plan.node_crash(200.0, victim.node.node_id)
    pipe.arm_faults(plan)

    finished = pipe.run(settle=600)

    print("Timeline of management + recovery decisions:")
    for t, label in pipe.telemetry.events:
        print(f"  t={t:7.1f}s  {label}")

    print("\nRecovery actions:")
    for rec in pipe.recovery.replacements:
        if rec["type"] == "replace":
            mttr = rec["completed_at"] - rec["suspected_at"]
            print(f"  REPLACE {rec['container']}/{rec['replica']} via "
                  f"{rec['method']} -> node {rec['node_id']} "
                  f"(repair {mttr * 1e3:.0f} ms after suspicion, "
                  f"{rec['redelivered']} chunks redelivered)")
        else:
            print(f"  {rec['type'].upper()} {rec['container']}")

    exits = sorted(ts for _, ts, _ in pipe.end_to_end)
    dupes = len(exits) - len(set(exits))
    lost = workload.total_steps - len(set(exits))
    print(f"\nrun finished: {finished}")
    print(f"timesteps delivered: {len(set(exits))}/{workload.total_steps} "
          f"({lost} lost, {dupes} duplicated)")
    print(f"bonds capacity after recovery: "
          f"{pipe.containers['bonds'].units} replicas")

    counters = REGISTRY.snapshot()["counters"]
    print("\nFault-subsystem counters:")
    for name in sorted(counters):
        if name.split(".")[0] in ("faults", "datatap"):
            print(f"  {name:32s} {counters[name]}")


if __name__ == "__main__":
    main()
