"""Run units and turn what they built into outcome records.

A unit record holds raw per-unit numbers only; :mod:`metrics` aggregates
records into the reported metrics.  Every pipeline a unit constructed is
audited for exactly one fate per timestep (delivered, shed, or spilled and
then replayed), and each workload adds its own gates.

Host speed drifts, so each timed unit runs under the instrumentation's
:class:`~hostspeed.HostSampler` and records the reference time that
:mod:`metrics` scales its timings by.
"""

from __future__ import annotations

import gc
import resource
from collections import Counter
from time import perf_counter
from typing import List

import networkx as nx

from repro.perf.registry import REGISTRY

from instrument import LAYERS, OTHER, Capture, Instrumentation, unit_digest
from workloads import Workload


def pipe_outcome(pipe, sla) -> dict:
    """Fates, simulated latencies and failures of one pipeline."""
    total = pipe.driver.workload.total_steps
    finished = pipe.driver.finished.triggered
    label = pipe.tenant or getattr(pipe.spec, "name", "pipeline")
    pairs = Counter((sink, step) for _, sink, step in pipe.exit_log)
    duplicated = sum(n - 1 for n in pairs.values())
    delivered = {step for _, step, _ in pipe.end_to_end}
    ledger = pipe.shed_ledger
    shed = ledger.steps()
    spilled = pipe.spill_ledger.steps() if pipe.spill_ledger is not None else set()
    conflicts = (len(delivered & shed) + len(spilled & shed)
                 + sum(1 for d in ledger.decisions().values() if len(d) > 1))
    # a spilled timestep owes a replay: until it is delivered it has no fate
    unfated = len(set(range(total)) - delivered - shed) if finished else 0
    problems = []
    if not finished:
        problems.append(f"{label}: run did not finish")
    if unfated:
        problems.append(f"{label}: {unfated} timesteps neither delivered nor shed")
    if duplicated:
        problems.append(f"{label}: {duplicated} duplicate deliveries")
    if conflicts:
        problems.append(f"{label}: {conflicts} timesteps with two fates")

    latency, bottleneck = latency_breakdown(pipe)
    limit = sla(pipe) if sla is not None else None
    return {
        "expected": total,
        "delivered": len(delivered),
        "shed": len(shed),
        "in_sla": (len({s for _, s, lat in pipe.end_to_end if lat <= limit})
                   if limit is not None else None),
        "latency": latency,
        "bottleneck": bottleneck,
        "blocked_s": pipe.driver.total_blocked_time,
        "degraded_s": pipe.degradation.time_in_degraded(pipe.env.now),
        "completions": sum(c.completions for c in pipe.containers.values()),
        "mttr": mttrs(pipe),
        "attempted": total + 1,
        "failed": (not finished) + unfated + duplicated + conflicts,
        "problems": problems,
    }


def drain(pipe, budget: float = 600.0) -> None:
    """Untimed, bounded extra simulated time for timesteps still in flight
    when a run's settle window closed, so "still in flight" is not
    reported as "lost" (the DST harness drains the same way)."""
    if not pipe.driver.finished.triggered:
        return
    env = pipe.env
    total = pipe.driver.workload.total_steps
    deadline = env.now + budget
    while env.now < deadline:
        fated = {step for _, step, _ in pipe.end_to_end} | pipe.shed_ledger.steps()
        if len(fated) >= total:
            return
        env.run(until=min(env.now + 30.0, deadline))


def latency_breakdown(pipe):
    """Per delivered timestep: end-to-end latency and the largest stage
    residency on the sink's path (each stage's ``latency_by_step``
    telemetry, the slowest record where a timestep has several).

    Residency runs from the upstream emit to the stage's completion, so
    the stage residencies along a path add up to the end-to-end latency
    exactly: transport between stages is inside the downstream residency
    and cannot be split out from public telemetry."""
    residency = {}
    for stage in pipe.containers:
        series = pipe.telemetry.get(stage, "latency_by_step")
        if series is None:
            continue
        per_step = residency[stage] = {}
        for step, value in zip(series.times, series.values):
            if value > per_step.get(step, -1.0):
                per_step[step] = value
    deps = pipe.global_manager.dependencies
    paths = {}
    latency, bottleneck = [], []
    for (_, step, lat), (_, sink, _) in zip(pipe.end_to_end, pipe.exit_log):
        latency.append(lat)
        if sink not in pipe.containers:
            continue  # replayed from the spill store: no stage path
        path = paths.get(sink)
        if path is None:
            path = paths[sink] = [sink, *nx.ancestors(deps, sink)]
        bottleneck.append(max(
            (residency[s][step] for s in path if step in residency.get(s, ())),
            default=0.0,
        ))
    return latency, bottleneck


def mttrs(pipe) -> List[float]:
    """Simulated crash -> REPLACE-complete time of each replacement."""
    if pipe.recovery is None or pipe.fault_injector is None:
        return []
    crashes = [t for t, kind, *_ in pipe.fault_injector.trace if kind == "node_crash"]
    out = []
    for rec in pipe.recovery.replacements:
        before = [t for t in crashes if t <= rec["suspected_at"]]
        if before:
            out.append(rec["completed_at"] - max(before))
    return out


def run_unit(inst: Instrumentation, workload: Workload, seed: int,
             reduced: bool = False, traced: bool = False, unit_id: int = 0,
             calibrated: bool = False) -> dict:
    """Run one unit and return its outcome record.  A ``calibrated`` unit
    runs under the host sampler: its wall time excludes the sampling, and
    the record's ``reference_s`` and ``setup_reference_s`` are the host's
    reference time during it and during its spec compiles."""
    gc.collect()
    REGISTRY.reset()
    capture: Capture = inst.fresh_capture()
    if traced:
        inst.clock.begin_unit(unit_id)
    if calibrated:
        inst.host.start()
    start = perf_counter()
    result = workload.unit(seed, reduced)
    wall = perf_counter() - start
    if calibrated:
        wall, reference = inst.host.stop()
    if traced:
        inst.clock.end_unit()
    snap = REGISTRY.snapshot()
    setup_s = sum(seconds for seconds, _ in capture.builds)
    sim_s = sum(env.now for env in capture.envs)
    events = sum(env.events_processed for env in capture.envs)
    for pipe in capture.pipes:
        drain(pipe)

    gates = workload.gates(result, reduced)
    pipes = [pipe_outcome(pipe, workload.sla) for pipe in capture.pipes]
    record = {
        "seed": seed,
        "wall_s": wall,
        "setup_s": setup_s,
        "run_s": wall - setup_s,
        "builds": len(capture.builds),
        "sim_s": sim_s,
        "events": events,
        "heap_peak": max((env.heap_peak for env in capture.envs), default=0),
        "catchup_s": ([arm["catchup_s"] for arm in result.values() if "catchup_s" in arm]
                      if isinstance(result, dict) else []),
        "counters": snap["counters"],
        "timers": {k: [v["calls"], v["total_seconds"]] for k, v in snap["timers"].items()},
        "problems": [name for name, ok in gates if not ok],
        "digest": unit_digest(capture),
    }
    if calibrated:
        record["reference_s"] = reference
        record["setup_reference_s"] = inst.host.reference(capture.builds) or reference
    record["attempted"] = len(gates)
    record["failed"] = len(record["problems"])
    for key in ("expected", "delivered", "shed", "attempted", "failed", "completions"):
        record[key] = record.get(key, 0) + sum(p[key] for p in pipes)
    for key in ("blocked_s", "degraded_s"):
        record[key] = sum(p[key] for p in pipes)
    for key in ("latency", "bottleneck", "mttr"):
        record[key] = [v for p in pipes for v in p[key]]
    sla_pipes = [p for p in pipes if p["in_sla"] is not None]
    record["in_sla"] = sum(p["in_sla"] for p in sla_pipes)
    record["sla_steps"] = sum(p["expected"] for p in sla_pipes)
    record["problems"] += [msg for p in pipes for msg in p["problems"]]

    if traced:
        clock = inst.clock
        counts = clock.span_counts(unit_id)
        record["layers"] = {layer: {"self_s": clock.self_s[layer],
                                    "events": clock.events[layer]}
                            for layer in LAYERS + (OTHER,)}
        record["spans"] = dict(counts)
        record["span_s"] = {name: clock.span_seconds(unit_id, name)
                            for name in ("cluster.hops", "dst.sweep", "spec.build")}
    return record


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            units: int = None, reduced: bool = False, spans_path: str = None) -> dict:
    """One run: warm up, then a closed loop of units for ``seconds`` (or
    exactly ``units``), then the repeat-seed check.

    Unit ``i`` uses seed ``seed + i``.  Untraced, the reduced warm-up unit
    is repeated at the end: its deterministic outputs must match.  Traced,
    every unit runs twice — untraced (kept in ``twins``), then traced — and
    the two schedules must match; their wall-time ratio is the tracing
    overhead.
    """
    records, twins, checks = [], [], []
    with Instrumentation(trace=trace) as inst:
        warm = run_unit(inst, workload, seed, reduced=True)
        start = perf_counter()
        i = 0
        while (i < units) if units is not None else (perf_counter() - start < seconds):
            base = run_unit(inst, workload, seed + i, reduced, calibrated=True)
            if trace:
                rec = run_unit(inst, workload, seed + i, reduced, traced=True, unit_id=i)
                rec["untraced_wall_s"] = base["wall_s"]
                checks.append((f"unit {i} traced schedule identical to untraced",
                               rec["digest"] == base["digest"]))
                if not spans_path:
                    inst.clock.spans.clear()
                twins.append(base)
                records.append(rec)
            else:
                records.append(base)
            i += 1
        if not trace:
            again = run_unit(inst, workload, seed, reduced=True)
            checks.append(("repeated seed gives identical outputs",
                           again["digest"] == warm["digest"]))
        if spans_path:
            inst.clock.write_spans(spans_path)
    problems = [f"unit {r['seed'] - seed}: {p}" for r in records for p in r["problems"]]
    problems += [name for name, ok in checks if not ok]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "units": records,
        "twins": twins,
        "checks": [[name, ok] for name, ok in checks],
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
