"""Chaos bench: fault injection + recovery on the Figure 7 configuration.

A seeded :class:`~repro.faults.FaultPlan` crashes one Bonds staging node
during steady state (plus a slowdown window on a CSym node for flavour)
while the management policy is live.  The run must complete end-to-end:
the crashed replica is detected within the heartbeat lease, replaced from
the spare pool by the REPLACE protocol, upstream custody redelivers the
unacked chunks, and the post-recovery bottleneck latency settles below the
SLA interval.  The same seed is run twice and the injector traces must be
identical — the determinism the whole faults subsystem is built on.

Emits ``BENCH_faults.json`` at the repo root via the shared perf-report
machinery (same schema as ``BENCH_kernels.json``): MTTR (suspicion->repair
and crash->repair), timesteps lost, duplicates delivered, availability,
and recovery protocol rounds, plus every ``faults.*`` / ``datatap.*`` /
``evpath.*`` counter the run accumulated.

Smoke mode for CI: ``BENCH_SMOKE=1`` shrinks the run to 12 timesteps.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_chaos.py``.
"""

import os
from pathlib import Path

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build
from repro.faults import FaultPlan
from repro.perf.registry import REGISTRY
from repro.perf.report import write_kernel_report

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
STEPS = 12 if SMOKE else 40
CRASH_AT = 60.0 if SMOKE else 200.0
SEED = 11
LEASE = 5.0
SPARES = 3
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"


def run_chaos(seed=SEED):
    """One managed Fig-7 run with a scripted mid-run staging-node crash."""
    env = Environment()
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=13 + SPARES, spare=SPARES,
                      steps=STEPS)
    pipe = build(env, PipelineSpec("chaos", workload=wl, builder=dict(
        seed=1, control_interval=30.0,
        fault_tolerance=True, lease_timeout=LEASE, heartbeat_interval=1.0,
    )))
    # Target a concrete placement: a Bonds replica that does not co-host
    # the local manager (replicas[0]'s node does).
    victim = pipe.containers["bonds"].replicas[1]
    plan = FaultPlan(seed=seed)
    plan.node_crash(CRASH_AT, victim.node.node_id)
    plan.node_slowdown(
        CRASH_AT + 40.0,
        pipe.containers["csym"].replicas[0].node.node_id,
        factor=2.0, duration=20.0,
    )
    pipe.arm_faults(plan)
    finished = pipe.run(settle=900)
    return pipe, finished


def chaos_metrics(pipe, finished):
    """Extract + sanity-check the recovery metrics from one chaos run."""
    wl = pipe.driver.workload
    assert finished, "chaos run did not complete end-to-end"

    crash_time = next(
        t for t, kind, *_ in pipe.fault_injector.trace if kind == "node_crash"
    )
    replaces = [r for r in pipe.recovery.replacements if r["type"] == "replace"]
    assert len(replaces) == 1, f"expected one REPLACE, got {pipe.recovery.replacements}"
    rec = replaces[0]
    assert rec["container"] == "bonds"
    assert rec["method"] == "spare", rec

    # Detection within the lease (scan period adds at most lease/4).
    detect_delay = rec["suspected_at"] - crash_time
    assert 0.0 < detect_delay <= 2.0 * LEASE, detect_delay

    mttr_detected = rec["completed_at"] - rec["suspected_at"]
    mttr_full = rec["completed_at"] - crash_time

    # Delivery accounting: every timestep exactly once.
    exits = [ts for _, ts, _ in pipe.end_to_end]
    duplicates = len(exits) - len(set(exits))
    lost = wl.total_steps - len(set(exits))
    assert duplicates == 0, f"{duplicates} duplicate timesteps delivered"
    assert lost == 0, f"{lost} timesteps lost"

    # Post-recovery SLA: the bottleneck returns to its achievable floor —
    # the per-chunk serial service time Figure 7's managed run converges
    # to.  The replacement replica re-enters with the crash backlog and
    # drains it at the round-robin headroom rate, so the transient shows
    # as one elevated step per RR cycle, decaying back to the floor; the
    # steady-state steps sit at the floor throughout and the application
    # is never blocked.
    series = pipe.telemetry.get("bonds", "latency_by_step")
    service = pipe.containers["bonds"].spec.cost.serial_time(wl.natoms)
    post = sorted(
        (t, v) for t, v in zip(series.times, series.values)
        if t * wl.output_interval > rec["completed_at"]
    )
    assert post, "no post-recovery timesteps observed"
    at_floor = [v for _, v in post if v < 1.1 * service]
    assert len(at_floor) >= len(post) / 2, (
        f"only {len(at_floor)}/{len(post)} post-recovery steps at the "
        f"{service:.1f}s service floor"
    )
    window = min(5, len(post))
    head = max(v for _, v in post[:window])
    tail = max(v for _, v in post[-window:])
    assert tail <= head, f"recovery transient not decaying ({head=} {tail=})"
    assert max(v for _, v in post) < 2.5 * service
    assert pipe.driver.blocked_time == 0.0
    final_latency = post[-1][1]

    nominal = wl.total_steps * wl.output_interval
    availability = 1.0 - mttr_full / nominal
    return {
        "crash_time": crash_time,
        "detect_delay": detect_delay,
        "mttr_detected": mttr_detected,
        "mttr_full": mttr_full,
        "timesteps_lost": lost,
        "duplicates": duplicates,
        "availability": availability,
        "final_bonds_latency": final_latency,
        "recovery_rounds": pipe.recovery.rounds,
        "redelivered": rec["redelivered"],
        # Fire-and-forget completions the crash swallowed: noise the kernel
        # tolerates by design, but it must be *surfaced*, not silent.
        "swallowed_faults": pipe.env.swallowed_faults,
    }


def run_suite():
    """Chaos run + replay-identity run; returns (metrics, identity_blob)."""
    pipe, finished = run_chaos()
    metrics = chaos_metrics(pipe, finished)

    # Replay: the identical seed must produce the identical event trace.
    pipe2, finished2 = run_chaos()
    assert finished2
    identity = {
        "trace_a": list(pipe.fault_injector.trace),
        "trace_b": list(pipe2.fault_injector.trace),
        "exits_a": list(pipe.end_to_end),
        "exits_b": list(pipe2.end_to_end),
    }
    assert identity["trace_a"] == identity["trace_b"], "fault trace diverged"
    assert identity["exits_a"] == identity["exits_b"], "delivery trace diverged"
    return metrics, identity


def emit_report(metrics):
    perf = REGISTRY.snapshot()
    fault_counters = {
        k: v for k, v in perf["counters"].items()
        if k.split(".")[0] in ("faults", "datatap", "evpath", "pipeline")
    }
    results = {
        "chaos.mttr_detected_s": metrics["mttr_detected"],
        "chaos.mttr_full_s": metrics["mttr_full"],
        "chaos.detect_delay_s": metrics["detect_delay"],
        "chaos.final_bonds_latency_s": metrics["final_bonds_latency"],
    }
    doc = write_kernel_report(
        REPORT_PATH,
        results,
        counters={
            **fault_counters,
            "chaos.timesteps_lost": metrics["timesteps_lost"],
            "chaos.duplicates": metrics["duplicates"],
            "chaos.recovery_rounds": metrics["recovery_rounds"],
            "chaos.redelivered": metrics["redelivered"],
            "chaos.swallowed_faults": metrics["swallowed_faults"],
        },
        meta={
            "bench": "bench_chaos",
            "smoke": SMOKE,
            "seed": SEED,
            "steps": STEPS,
            "crash_at": CRASH_AT,
            "lease_timeout": LEASE,
            "availability": round(metrics["availability"], 4),
            "scenario": "fig7 + spares, one staging-node crash mid-run",
        },
    )
    return doc


def test_chaos_recovery(benchmark):
    from conftest import print_table

    metrics, identity = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    doc = emit_report(metrics)
    benchmark.extra_info.update(
        {
            "report": str(REPORT_PATH),
            "mttr_full": metrics["mttr_full"],
            "availability": metrics["availability"],
        }
    )
    print_table(
        "Chaos recovery metrics",
        ["Metric", "Value"],
        [[k, f"{v:.3f}" if isinstance(v, float) else str(v)]
         for k, v in sorted(metrics.items())],
    )
    assert identity["trace_a"] == identity["trace_b"]


def main():
    metrics, _ = run_suite()
    emit_report(metrics)
    for name, value in sorted(metrics.items()):
        if isinstance(value, float):
            print(f"{name:28s} {value:12.3f}")
        else:
            print(f"{name:28s} {value!s:>12}")
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
