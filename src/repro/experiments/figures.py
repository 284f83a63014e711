"""Runner functions, one per table/figure of the paper's evaluation.

Each returns a plain dict of the regenerated rows/series plus the
management events, ready for JSON output or terminal rendering.  The
tests assert the qualitative shapes on these same dicts
(``tests/test_paper_figures.py``, ``tests/test_extension_acceptance.py``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.simkernel import Environment
from repro.cluster import redsky
from repro.evpath import Messenger
from repro.lammps.workload import TABLE_II, WeakScalingWorkload
from repro.smartpointer.component import SMARTPOINTER_COMPONENTS
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec
from repro.spec.build import build as build_spec, load_preset
from repro.transactions import TransactionManager


def _build(name: str, workload: WorkloadSpec, seed: int,
           stages=None, **builder):
    """One programmatic spec -> pipeline, for the figure micro-configs.

    ``builder`` knobs land in the spec's (validated) builder block.  These
    specs deliberately leave fault tolerance off — the control-protocol
    figures measure the management plane, not the recovery ladder.
    """
    env = Environment()
    spec = PipelineSpec(name=name, workload=workload, stages=stages,
                        builder={"seed": seed, **builder})
    return env, build_spec(env, spec)


def _series(pipe, scope: str, metric: str) -> List[List[float]]:
    series = pipe.telemetry.get(scope, metric)
    if series is None:
        return []
    return [[float(t), float(v)] for t, v in zip(series.times, series.values)]


def _events(pipe) -> List[List]:
    return [[float(t), label] for t, label in pipe.telemetry.events]


# -- tables -----------------------------------------------------------------------


def run_table1(**_) -> dict:
    """Table I: SmartPointer action characteristics."""
    rows = []
    for name, spec in SMARTPOINTER_COMPONENTS.items():
        rows.append({
            "component": name,
            "complexity": spec.complexity,
            "compute_models": [m.value for m in spec.compute_models],
            "dynamic_branching": spec.dynamic_branching,
        })
    return {"experiment": "table1", "rows": rows}


def run_table2(**_) -> dict:
    """Table II: weak-scaling data sizes."""
    rows = []
    for nodes in sorted(TABLE_II):
        wl = WeakScalingWorkload(sim_nodes=nodes, staging_nodes=24)
        rows.append({
            "nodes": nodes,
            "atoms": wl.natoms,
            "bytes_per_step": wl.bytes_per_step,
            "mib_per_step": round(wl.bytes_per_step / 2**20, 1),
        })
    return {"experiment": "table2", "rows": rows}


# -- microbenchmarks ---------------------------------------------------------------


def run_fig3(seed: int = 0, **_) -> dict:
    """Figure 3: the container control protocols, round by round.

    Drives INCREASE, DECREASE, SET_STRIDE, and OFFLINE against a small
    pipeline and reports the control-plane engine's structured traces:
    one row per executed round with its simulated duration and message
    count, plus the full per-protocol traces (labels, charged categories,
    abort/compensation info) for JSON output.
    """
    env, pipe = _build(
        "fig3",
        WorkloadSpec(sim_nodes=256, staging_nodes=15, spare=2, steps=8),
        seed, control_interval=10_000,
    )
    gm = pipe.global_manager

    def do(env):
        yield env.timeout(1)
        yield gm.increase("bonds", 2)
        yield env.timeout(40)
        yield gm.decrease("bonds", 1)
        yield gm.set_stride("csym", 2)
        yield gm.take_offline("csym")

    env.process(do(env))
    pipe.run(settle=120)
    rows = []
    for trace in pipe.control_trace.records:
        for rnd in trace.rounds:
            if rnd.status == "skipped":
                continue
            rows.append({
                "protocol": trace.protocol,
                "subject": trace.subject,
                "round": rnd.name,
                "status": rnd.status,
                "seconds": round(rnd.seconds, 6),
                "messages": rnd.messages,
            })
    return {
        "experiment": "fig3",
        "rows": rows,
        "traces": [t.as_dict() for t in pipe.control_trace.records],
    }


def run_fig4(sizes=(1, 2, 4, 8, 16), seed: int = 0, **_) -> dict:
    """Figure 4: time to increase container size (aprun factored out)."""
    series = []
    for size in sizes:
        stages = (
            StageSpec("helper", 4, model="tree"),
            StageSpec("bonds", 4, model="rr", upstream="helper"),
            StageSpec("csym", 3, model="rr", upstream="bonds"),
        )
        env, pipe = _build(
            "fig4",
            WorkloadSpec(sim_nodes=256, staging_nodes=13 + max(sizes),
                         spare=0, steps=4),
            seed, stages=stages, control_interval=10_000,
        )

        def do(env, pipe=pipe, size=size):
            yield env.timeout(1)
            yield pipe.global_manager.increase("bonds", size)

        env.process(do(env))
        pipe.run(settle=120)
        record = pipe.tracer.of("increase")[0]
        series.append({
            "replicas_added": size,
            "total_seconds": record.total,
            "intra_container_seconds": record.breakdown.get("intra_container", 0.0),
            "manager_seconds": record.breakdown.get("manager", 0.0),
        })
    return {"experiment": "fig4", "series": series}


def run_fig5(sizes=(1, 2, 4, 8), seed: int = 0, **_) -> dict:
    """Figure 5: time to decrease container size."""
    series = []
    for size in sizes:
        stages = (
            StageSpec("helper", 4, model="tree"),
            StageSpec("bonds", 12, model="rr", upstream="helper"),
            StageSpec("csym", 3, model="rr", upstream="bonds"),
        )
        env, pipe = _build(
            "fig5",
            WorkloadSpec(sim_nodes=256, staging_nodes=24, spare=0, steps=20),
            seed, stages=stages, control_interval=10_000,
        )

        def do(env, pipe=pipe, size=size):
            yield env.timeout(40)
            yield pipe.global_manager.decrease("bonds", size)

        env.process(do(env))
        pipe.run(settle=120)
        record = pipe.tracer.of("decrease")[0]
        series.append({
            "replicas_removed": size,
            "total_seconds": record.total,
            "writer_pause_seconds": record.breakdown.get("writer_pause", 0.0),
            "manager_seconds": record.breakdown.get("manager", 0.0),
        })
    return {"experiment": "fig5", "series": series}


def run_fig6(ratios=((64, 2), (128, 4), (256, 4), (512, 4), (1024, 8), (2048, 8)),
             repeats: int = 3, **_) -> dict:
    """Figure 6: D2T transaction time vs writer:reader ratio."""
    series = []
    for writers, readers in ratios:
        env = Environment()
        machine = redsky(env, num_nodes=writers + readers + 1)
        messenger = Messenger(env, machine.network)
        tm = TransactionManager(env, messenger, machine.nodes[-1])
        wg = tm.build_group("writers", machine.nodes[:writers], fanout=8)
        rg = tm.build_group("readers", machine.nodes[writers:writers + readers])
        outcomes = []

        def proc(env):
            for _ in range(repeats):
                out = yield tm.run([wg, rg])
                outcomes.append(out)

        env.process(proc(env))
        env.run(until=600)
        series.append({
            "writers": writers,
            "readers": readers,
            "committed": all(o.committed for o in outcomes),
            "mean_seconds": float(np.mean([o.total for o in outcomes])),
        })
    return {"experiment": "fig6", "series": series}


# -- the latency-management experiments ----------------------------------------------


def _run_pipeline(sim_nodes: int, staging_nodes: int, spare: int,
                  steps: int, seed: int, managed: bool = True,
                  stages=None, **builder_kwargs) -> dict:
    builder_kwargs.setdefault("control_interval", 30.0 if managed else 1e9)
    env, pipe = _build(
        "latency-management",
        WorkloadSpec(sim_nodes=sim_nodes, staging_nodes=staging_nodes,
                     spare=spare, steps=steps),
        seed, stages=stages, **builder_kwargs,
    )
    finished = pipe.run(settle=300)
    return {
        "finished": finished,
        "blocked_seconds": pipe.driver.total_blocked_time,
        "actions": list(pipe.global_manager.actions_taken),
        "events": _events(pipe),
        "containers": {
            name: {
                "units": c.units,
                "offline": c.offline,
                "completions": c.completions,
            }
            for name, c in pipe.containers.items()
        },
        "bonds_latency_by_step": _series(pipe, "bonds", "latency_by_step"),
        "end_to_end": _series(pipe, "pipeline", "end_to_end"),
        "bonds_buffer_occupancy": _series(pipe, "bonds", "buffer_occupancy"),
    }


def run_fig7(seed: int = 1, steps: int = 40, include_baseline: bool = True, **_) -> dict:
    """Figure 7: 256 sim + 13 staging, steal from the over-provisioned Helper."""
    result = {"experiment": "fig7",
              "managed": _run_pipeline(256, 13, 0, steps, seed, managed=True)}
    if include_baseline:
        result["unmanaged"] = _run_pipeline(256, 13, 0, steps, seed, managed=False)
    return result


def run_fig8(seed: int = 1, steps: int = 40, **_) -> dict:
    """Figure 8: 512 sim + 24 staging (4 spare), insufficient but survivable."""
    return {"experiment": "fig8",
            "managed": _run_pipeline(512, 24, 4, steps, seed, managed=True)}


def run_fig9(seed: int = 1, steps: int = 60, **_) -> dict:
    """Figure 9: 1024 sim + 24 staging (4 spare), offline cascade."""
    return {"experiment": "fig9",
            "managed": _run_pipeline(1024, 24, 4, steps, seed, managed=True)}


def run_fig10(seed: int = 1, **_) -> dict:
    """Figure 10: end-to-end latency (paper config + 640-node companion)."""
    companion_stages = (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 5, model="rr", upstream="helper"),
        StageSpec("csym", 6, model="rr", upstream="bonds"),
        StageSpec("cna", 3, model="rr", upstream="bonds", standby=True),
    )
    return {
        "experiment": "fig10",
        "paper_config_1024": _run_pipeline(1024, 24, 4, 60, seed),
        "companion_640": _run_pipeline(
            640, 24, 4, 60, seed,
            stages=companion_stages, overflow_occupancy=0.25,
        ),
    }


def run_overload(seed: int = 1, steps: int = 24, include_baseline: bool = True,
                 **_) -> dict:
    """Overload: a burst slowdown saturates the analysis stages.

    Unmanaged, the producer wedges behind full staging buffers.  Managed,
    credit-based backpressure raises the driver's output stride, the
    brownout ladder sheds work under the SLA, and — once the burst passes
    — hysteresis walks every rung back: stride returns to 1, pruned
    containers re-activate, and the degradation trace closes.  Every
    timestep not delivered is attributed to exactly one shed decision.
    """
    from repro.overload.scenario import overload_burst_plan

    def one(managed: bool) -> dict:
        env = Environment()
        spec = load_preset("overload").override(
            workload=dict(steps=steps), builder=dict(seed=seed),
        )
        if not managed:
            # No overload handling at all; the legacy policy loop is
            # disabled too, so nothing reshapes the pipeline when the
            # burst lands.
            spec = spec.override(
                builder=dict(control_interval=1e9),
                drop_builder=("backpressure", "brownout"),
            )
        pipe = build_spec(env, spec)
        # standby stages (cna) start offline by design; only stages pruned
        # by the ladder and not re-activated count as unrestored
        initially_offline = {n for n, c in pipe.containers.items() if c.offline}
        plan = overload_burst_plan(seed, pipe)
        if plan.events:
            pipe.arm_faults(plan)
        wl = pipe.driver.workload
        # the SLA horizon: a producer still blocked past 2x the nominal
        # run length has wedged — exactly what backpressure must prevent
        horizon = 2.0 * wl.total_steps * wl.output_interval
        finished = pipe.run(settle=600, deadline=horizon)
        sla = 2.0 * wl.output_interval
        latencies = [lat for _, _, lat in pipe.end_to_end]
        delivered = {step for _, step, _ in pipe.end_to_end}
        ledger = pipe.shed_ledger
        trace = pipe.degradation
        return {
            "finished": finished,
            "blocked_seconds": pipe.driver.total_blocked_time,
            "delivered_steps": len(delivered),
            "shed_steps": len(ledger.steps()),
            "unaccounted_steps": sorted(pipe.fates.unfated()),
            "sla_compliance_pct": (
                100.0 * sum(1 for lat in latencies if lat <= sla) / len(latencies)
                if latencies else 0.0
            ),
            "shed_fraction": ledger.shed_fraction(wl.total_steps),
            "shed_by_reason": ledger.by_reason(),
            "time_in_degraded_s": trace.time_in_degraded(env.now),
            "recovery_dwell_s": trace.recovery_dwell,
            "fully_restored": trace.fully_restored,
            "final_stride": pipe.driver.output_stride,
            "offline_containers": sorted(
                name for name, c in pipe.containers.items()
                if c.offline and name not in initially_offline
            ),
            "degradation_steps": trace.as_dicts(),
            "actions": list(pipe.global_manager.actions_taken),
            "events": _events(pipe),
            "containers": {
                name: {
                    "units": c.units,
                    "offline": c.offline,
                    "completions": c.completions,
                }
                for name, c in pipe.containers.items()
            },
        }

    managed = one(managed=True)
    result = {"experiment": "overload", "managed": managed}
    restored = (
        managed["finished"]
        and managed["fully_restored"]
        and managed["final_stride"] == 1
        and not managed["offline_containers"]
        and not managed["unaccounted_steps"]
    )
    if include_baseline:
        baseline = one(managed=False)
        result["unmanaged"] = baseline
        result["ok"] = restored and not baseline["finished"]
    else:
        result["ok"] = restored
    return result


def run_predictive(seed: int = 1, steps: int = 24, **_) -> dict:
    """Predictive vs reactive overload management, head to head.

    Two runs of the *same* overload scenario — identical workload, tight
    buffers, seeded burst — differing only in the spec's overload block:
    ``mode: reactive`` (the pure hysteresis controllers) against
    ``mode: predictive`` (the :mod:`repro.analytics` forecaster stack
    feeding the same controllers).  The claim under test is that acting
    on forecasts *before* violations — climbing the confirmed ladder
    faster, backing off premature recovery, unwinding the rung that is
    actually shedding — strictly reduces both time spent degraded and
    the fraction of timesteps shed.
    """
    from repro.containers.presets import (
        build_overload_pipeline, build_predictive_pipeline,
    )
    from repro.overload.scenario import overload_burst_plan

    def one(predictive: bool) -> dict:
        env = Environment()
        builder = build_predictive_pipeline if predictive else build_overload_pipeline
        pipe = builder(env, steps=steps, seed=seed)
        plan = overload_burst_plan(seed, pipe)
        if plan.events:
            pipe.arm_faults(plan)
        wl = pipe.driver.workload
        horizon = 2.0 * wl.total_steps * wl.output_interval
        finished = pipe.run(settle=600, deadline=horizon)
        ledger = pipe.shed_ledger
        trace = pipe.degradation
        delivered = {step for _, step, _ in pipe.end_to_end}
        out = {
            "finished": finished,
            "delivered_steps": len(delivered),
            "shed_steps": len(ledger.steps()),
            "shed_fraction": ledger.shed_fraction(wl.total_steps),
            "shed_by_reason": ledger.by_reason(),
            "time_in_degraded_s": trace.time_in_degraded(env.now),
            "fully_restored": trace.fully_restored,
            "final_stride": pipe.driver.output_stride,
            "degradation_steps": trace.as_dicts(),
        }
        if pipe.analytics is not None:
            out["analytics"] = pipe.analytics.as_dict()
        return out

    reactive = one(predictive=False)
    predictive = one(predictive=True)
    result = {
        "experiment": "predictive",
        "seed": seed,
        "steps": steps,
        "reactive": reactive,
        "predictive": predictive,
        "time_in_degraded_reduction_s": (
            reactive["time_in_degraded_s"] - predictive["time_in_degraded_s"]
        ),
        "shed_reduction_steps": reactive["shed_steps"] - predictive["shed_steps"],
    }
    result["ok"] = (
        reactive["finished"]
        and predictive["finished"]
        and predictive["fully_restored"]
        and predictive["final_stride"] == 1
        # the paper-level claim: strictly better on BOTH axes
        and predictive["time_in_degraded_s"] < reactive["time_in_degraded_s"]
        and predictive["shed_fraction"] < reactive["shed_fraction"]
    )
    return result


def run_failover(seed: int = 1, steps: int = 24, **_) -> dict:
    """Degrade-to-disk failover vs reactive shedding, head to head.

    Two runs of the *same* overload scenario — identical workload, tight
    buffers, seeded burst — differing only in the spec's failover block.
    The reactive baseline sheds timesteps permanently (the paper's
    behavior: pruned containers and stride skips lose data).  The failover
    pipeline spills every would-be shed to a durable segment store and
    replays it once the pressure clears: the claim under test is that the
    same overload ends with **zero** shed timesteps and 100% eventual
    delivery, at the cost of a bounded catch-up delay.  A third run checks
    determinism: the spill ledger and handover records must be identical
    across reruns of the same seed.
    """
    from repro.containers.presets import (
        build_failover_pipeline, build_overload_pipeline,
    )
    from repro.overload.scenario import overload_burst_plan

    def one(failover: bool) -> dict:
        env = Environment()
        builder = build_failover_pipeline if failover else build_overload_pipeline
        pipe = builder(env, steps=steps, seed=seed)
        plan = overload_burst_plan(seed, pipe)
        if plan.events:
            pipe.arm_faults(plan)
        wl = pipe.driver.workload
        horizon = 2.0 * wl.total_steps * wl.output_interval
        finished = pipe.run(settle=600, deadline=horizon)
        run_end = env.now
        spill = pipe.spill_ledger
        if spill is not None:
            # Catch-up: hold the run open (bounded) until the replay
            # protocol settles every spilled segment.
            drain_deadline = env.now + 20.0 * wl.output_interval
            while spill.pending() and env.now < drain_deadline:
                env.run(until=min(env.now + 30.0, drain_deadline))
        ledger = pipe.shed_ledger
        trace = pipe.degradation
        delivered = {step for _, step, _ in pipe.end_to_end}
        out = {
            "finished": finished,
            "delivered_steps": len(delivered),
            "eventual_delivery_pct": 100.0 * len(delivered) / wl.total_steps,
            "shed_steps": len(ledger.steps()),
            "shed_fraction": ledger.shed_fraction(wl.total_steps),
            "shed_by_reason": ledger.by_reason(),
            "time_in_degraded_s": trace.time_in_degraded(env.now),
            "fully_restored": trace.fully_restored,
            "final_stride": pipe.driver.output_stride,
        }
        if spill is not None:
            replay_lat = [
                lat for (_, step, lat), (_, sink, _s) in
                zip(pipe.end_to_end, pipe.exit_log) if sink == "replay"
            ]
            out.update({
                "spilled_steps": len(spill),
                "spill_pending": len(spill.pending()),
                "spill_by_status": spill.by_status(),
                "spill_by_reason": spill.by_reason(),
                "catchup_s": env.now - run_end,
                "max_replay_latency_s": max(replay_lat, default=0.0),
                "handovers": list(pipe.failover.handovers),
                "spill_ledger": spill.as_dicts(),
                "engine_transitions": {
                    name: [list(t) for t in sw.transitions]
                    for name, sw in pipe.failover.switches.items()
                },
            })
        return out

    reactive = one(failover=False)
    fo = one(failover=True)
    replica = one(failover=True)

    def canon(run: dict) -> tuple:
        # chunk ids ride a process-global counter, so they differ between
        # in-process reruns; everything schedule-meaningful must not.
        ledger = [
            {k: v for k, v in rec.items() if k != "chunk_id"}
            for rec in run["spill_ledger"]
        ]
        return ledger, run["handovers"], run["engine_transitions"]

    replay_identical = canon(fo) == canon(replica)
    result = {
        "experiment": "failover",
        "seed": seed,
        "steps": steps,
        "reactive": reactive,
        "failover": fo,
        "replay_identical": replay_identical,
        "shed_elimination_steps": reactive["shed_steps"] - fo["shed_steps"],
    }
    result["ok"] = (
        reactive["finished"]
        and fo["finished"]
        # the baseline really does lose data under this burst...
        and reactive["shed_fraction"] > 0.0
        # ...and failover turns every loss into bounded-latency delivery
        and fo["shed_fraction"] == 0.0
        and fo["eventual_delivery_pct"] == 100.0
        and fo["spill_pending"] == 0
        and replay_identical
    )
    return result


def run_dst(seed: int = 1, seeds: int = 8, scenario: str = "smoke",
            tenants: int = 4, spec: str = None, **_) -> dict:
    """Deterministic simulation testing: sweep schedule seeds over the smoke
    scenario, checking every registered invariant on every interleaving.

    Stops at the first violating seed; the failure row then carries the
    violation list, the event log, the greedily shrunk minimal fault plan,
    and the one-line repro command.  ``ok`` is False exactly when a
    violation was found (the CLI turns that into a nonzero exit).

    ``--scenario fleet`` sweeps the multi-tenant fleet scenario instead:
    ``tenants`` pipelines on one machine under the fleet arbiter, with the
    two fleet-wide oracles (cross-tenant node leaks, quota conservation)
    active alongside the standard catalogue.

    ``--scenario fuzz`` sweeps *generated topologies*: each seed draws a
    random-but-valid :class:`~repro.spec.model.PipelineSpec` (and its
    chaos plan) from the seeded generator, so the oracles exercise shapes
    nobody hand-wrote.  ``--spec FILE`` sweeps a pipeline loaded from a
    YAML spec file instead.
    """
    from repro.dst import DSTScenario, explore, shrink
    from repro.dst.scenario import plan_for

    if spec is not None:
        from repro.spec.fuzz import SpecFileScenario

        sc = SpecFileScenario(path=str(spec))
    elif scenario == "fuzz":
        from repro.spec.fuzz import FuzzedTopologyScenario

        sc = FuzzedTopologyScenario()
    elif scenario == "fleet":
        from repro.fleet import FleetDSTScenario

        sc = FleetDSTScenario(tenants=tenants)
    else:
        sc = DSTScenario(name=scenario, preset=scenario, plan=plan_for(scenario))
    exploration = explore(sc, range(seed, seed + max(1, seeds)))
    failing = None if exploration.failure is None else exploration.failure.seed
    rows = [
        {"seed": s, "ok": s != failing, "scenario": sc.name}
        for s in exploration.seeds_run
    ]
    result = {
        "experiment": "dst",
        "ok": exploration.ok,
        "rows": rows,
        "failure": None,
        "shrunk": None,
    }
    if exploration.failure is not None:
        failure = exploration.failure
        result["failure"] = failure.as_dict()
        pipe_for_plan = sc.build(failure.seed)
        plan = sc.resolve_plan(failure.seed, pipe_for_plan)
        if plan is not None and plan.events:
            result["shrunk"] = shrink(sc, failure.seed, plan).as_dict()
    return result


def run_fleet(seed: int = 1, tenants: int = 6, steps: int = 6, **_) -> dict:
    """Multi-tenant fleet: N pipelines, one machine, one shared spare pool.

    Builds the canonical mixed slate (tenant ``t00`` = tight-buffer
    overload preset + seeded burst, lowest priority; the rest alternate
    fig7/S3D), arms the merged machine-wide fault plan, and runs everything
    in one simulation.  The acceptance property: every tenant finishes and
    accounts for every timestep, t00 browns out (degradation steps > 0),
    and *no other tenant* misses its SLA — tenant isolation under the
    shared arbiter.
    """
    from repro.fleet import build_mixed_fleet, fleet_plan
    from repro.simkernel import shuffle

    env = Environment(tie_breaker=shuffle(seed))
    fleet = build_mixed_fleet(env, tenants=tenants, steps=steps)
    plan = fleet_plan(seed, fleet)
    if plan.events:
        fleet.arm_faults(plan)
    finished = fleet.run(settle=240.0)
    rows = fleet.summaries()
    unaccounted = {}
    for name, tenant in sorted(fleet.tenants.items()):
        missing = tenant.pipe.fates.unfated()
        if missing:
            unaccounted[name] = sorted(missing)
    victims = [t for t in fleet.tenants.values() if t.spec.overload_burst]
    browned_out = bool(victims) and all(t.degradations() > 0 for t in victims)
    others_met_sla = all(
        t.sla_compliance() == 1.0
        for t in fleet.tenants.values() if not t.spec.overload_burst
    )
    arbiter = fleet.arbiter
    actions: Dict[str, int] = {}
    for _, action, _, count in arbiter.trace:
        actions[action] = actions.get(action, 0) + count
    return {
        "experiment": "fleet",
        "tenants": tenants,
        "steps": steps,
        "ok": (all(finished.values()) and not unaccounted and browned_out
               and others_met_sla and not arbiter.violations),
        "rows": rows,
        "unaccounted": unaccounted,
        "overloaded_browned_out": browned_out,
        "others_met_sla": others_met_sla,
        "events_processed": env.events_processed,
        "arbiter": {
            "actions": actions,
            "trace": [[float(t), a, n, int(c)] for t, a, n, c in arbiter.trace],
            "violations": list(arbiter.violations),
        },
        "plan_signature": plan.signature(),
    }


def run_specs(spec: str = None, **_) -> dict:
    """Validate the pipeline-spec library: parse, validate, round-trip.

    Checks every bundled spec (or one ``--spec`` file) three ways: it
    parses, the validation pass accepts it, and the YAML round-trip is
    loss free (``from_yaml(to_yaml(s)) == s``).  ``ok`` is False on the
    first spec failing any of the three — the CI spec-validation gate.
    """
    from repro.spec.build import bundled_spec_names, bundled_spec_path

    targets = (
        [("file", str(spec))] if spec is not None
        else [(n, str(bundled_spec_path(n))) for n in bundled_spec_names()]
    )
    rows = []
    for name, path in targets:
        row = {"spec": name, "path": path, "stages": "-", "round_trip": False,
               "ok": False, "error": ""}
        try:
            loaded = PipelineSpec.load(path).validate()
            row["stages"] = ("default" if loaded.stages is None
                             else len(loaded.stages))
            row["round_trip"] = PipelineSpec.from_yaml(loaded.to_yaml()) == loaded
            row["ok"] = row["round_trip"]
        except Exception as exc:
            row["error"] = str(exc)
        rows.append(row)
    return {"experiment": "specs", "ok": all(r["ok"] for r in rows),
            "rows": rows}


EXPERIMENTS: Dict[str, callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "overload": run_overload,
    "predictive": run_predictive,
    "failover": run_failover,
    "dst": run_dst,
    "fleet": run_fleet,
    "specs": run_specs,
}


def run_experiment(name: str, **kwargs) -> dict:
    """Run one experiment by id (``table1``..``fig10``)."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)
