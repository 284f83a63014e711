"""The five workloads: one unit of each is one simulated study.

Every unit takes its inputs from one seed and calls only public entry
points — the bundled presets, ``repro.spec.build``, the ``run_fig*``
runners, ``DSTScenario`` and ``build_mixed_fleet``.  ``reduced=True`` is
the small untimed warm-up (and repeat-seed check) variant of the same unit.

A workload's :func:`gates` are its correctness checks beyond the
per-pipeline fate accounting the harness applies to every pipeline.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.containers.presets import (
    build_failover_pipeline, build_overload_pipeline, build_predictive_pipeline,
)
from repro.dst import DSTScenario
from repro.dst.scenario import plan_for
from repro.experiments import figures
from repro.fleet import build_mixed_fleet, fleet_plan
from repro.overload.scenario import overload_burst_plan
from repro.simkernel import Environment, shuffle

# Looked up per call, so the instrumentation's wrappers are the ones used.
spec_build = importlib.import_module("repro.spec.build")

Gate = Tuple[str, bool]


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is stated in ``BENCHMARK.json``."""

    name: str
    #: units per workload in ``bench.py run`` (identical inputs on both sides
    #: of a compare: unit ``i`` always uses seed ``seed + i``)
    units: int
    unit: Callable[[int, bool], object]
    gates: Callable[[object, bool], List[Gate]]
    #: simulated end-to-end SLA of a pipeline, or None where none applies
    sla: Optional[Callable[[object], float]] = None


# -- fig7_ft ------------------------------------------------------------------


def fig7_ft(seed: int, reduced: bool):
    spec = spec_build.load_preset("fig7").override(
        workload=dict(steps=4 if reduced else 64), builder=dict(seed=seed),
    )
    pipe = spec_build.build(Environment(), spec)
    return pipe.run(settle=120)


def fig7_gates(finished, reduced) -> List[Gate]:
    return [("fig7 run finished", finished)]


# -- paper_figs -----------------------------------------------------------------

#: the figure families — control protocols, D2T transactions, latency
#: management — as result key -> (runner, keyword arguments)
PAPER_FIGS = {
    "fig3": (figures.run_fig3, {}), "fig4": (figures.run_fig4, {}),
    "fig5": (figures.run_fig5, {}),
    "fig6": (figures.run_fig6, {"repeats": 1}),
    "fig7": (figures.run_fig7, {}), "fig8": (figures.run_fig8, {}),
    "fig9": (figures.run_fig9, {}), "fig10": (figures.run_fig10, {}),
}
PAPER_FIGS_REDUCED = {
    "fig3": (figures.run_fig3, {}),
    "fig6": (figures.run_fig6, {"ratios": ((64, 2),), "repeats": 1}),
    "fig7": (figures.run_fig7, {"steps": 4}),
}


def paper_figs(seed: int, reduced: bool) -> dict:
    # run_fig6 ignores the seed
    return {key: fn(seed=seed, **kw)
            for key, (fn, kw) in (PAPER_FIGS_REDUCED if reduced else PAPER_FIGS).items()}


def paper_gates(results: dict, reduced) -> List[Gate]:
    gates = [
        (f"fig6 {row['writers']}:{row['readers']} transaction committed", row["committed"])
        for row in results["fig6"]["series"]
    ]
    managed = [("fig7", results["fig7"]["managed"])]
    for key in ("fig8", "fig9"):
        if key in results:
            managed.append((key, results[key]["managed"]))
    if "fig10" in results:
        managed += [("fig10", run) for k, run in results["fig10"].items() if k != "experiment"]
    gates += [(f"{key} managed run finished", run["finished"]) for key, run in managed]
    return gates


# -- overload_arms --------------------------------------------------------------

ARMS = (
    ("overload", build_overload_pipeline),
    ("predictive", build_predictive_pipeline),
    ("failover", build_failover_pipeline),
)


def overload_arms(seed: int, reduced: bool) -> dict:
    """One seeded burst resolved by shedding, forecasting and spilling,
    with the horizon, settle and spill catch-up drain of ``run_failover``."""
    out = {}
    for name, builder in ARMS:
        env = Environment()
        pipe = builder(env, steps=4 if reduced else 24, seed=seed)
        plan = overload_burst_plan(seed, pipe)
        if plan.events:
            pipe.arm_faults(plan)
        wl = pipe.driver.workload
        finished = pipe.run(settle=600, deadline=2.0 * wl.total_steps * wl.output_interval)
        run_end = env.now
        spill = pipe.spill_ledger
        if spill is not None:
            drain_deadline = env.now + 20.0 * wl.output_interval
            while spill.pending() and env.now < drain_deadline:
                env.run(until=min(env.now + 30.0, drain_deadline))
        out[name] = {"finished": finished, "catchup_s": env.now - run_end,
                     "pending": len(spill.pending()) if spill is not None else 0}
    return out


def overload_gates(arms: dict, reduced) -> List[Gate]:
    gates = [(f"{name} arm finished", arm["finished"]) for name, arm in arms.items()]
    gates.append(("failover arm ends with 0 pending spills", arms["failover"]["pending"] == 0))
    return gates


def overload_sla(pipe) -> float:
    return 2.0 * pipe.driver.workload.output_interval


# -- fleet32 ----------------------------------------------------------------------


def fleet32(seed: int, reduced: bool):
    """``run_fleet`` at 32 tenants, with a 60 s settle instead of 240 s: the
    extra 180 simulated seconds are idle liveness traffic that would more
    than double the unit and leave two units per measured run."""
    env = Environment(tie_breaker=shuffle(seed))
    fleet = build_mixed_fleet(env, tenants=2 if reduced else 32, steps=2 if reduced else 6)
    plan = fleet_plan(seed, fleet)
    if plan.events:
        fleet.arm_faults(plan)
    fleet.run(settle=60.0)
    return fleet


def fleet_gates(fleet, reduced) -> List[Gate]:
    """``run_fleet``'s acceptance property minus its SLA clause: every
    tenant finishes, the overloaded victim browns out, and the arbiter's
    conservation audit stays clean.  SLA misses are simulated outcomes
    (``sla_compliance``), not failures: on some seeds the tenant the plan
    crashes recovers past its SLA."""
    tenants = list(fleet.tenants.values())
    gates = [(f"{t.name} finished", t.pipe.driver.finished.triggered) for t in tenants]
    if not reduced:
        gates += [(f"{t.name} browned out", t.degradations() > 0)
                  for t in tenants if t.spec.overload_burst]
    gates.append(("arbiter audit clean", not fleet.arbiter.violations))
    return gates


def fleet_sla(pipe) -> float:
    return pipe.fleet.tenants[pipe.tenant].sla_seconds()


# -- dst_sweep ---------------------------------------------------------------------

DST_PRESETS = ("smoke", "overload", "failover")


def dst_sweep(seed: int, reduced: bool) -> list:
    return [DSTScenario(name=preset, preset=preset, plan=plan_for(preset)).run(seed)
            for preset in (DST_PRESETS[:1] if reduced else DST_PRESETS)]


def dst_gates(reports: list, reduced) -> List[Gate]:
    return [(f"dst {r.preset} seed {r.seed} clean", r.ok and r.finished) for r in reports]


WORKLOADS = {
    w.name: w for w in (
        Workload("fig7_ft", 34, fig7_ft, fig7_gates),
        Workload("paper_figs", 8, paper_figs, paper_gates),
        Workload("overload_arms", 6, overload_arms, overload_gates, overload_sla),
        Workload("fleet32", 7, fleet32, fleet_gates, fleet_sla),
        Workload("dst_sweep", 24, dst_sweep, dst_gates),
    )
}
