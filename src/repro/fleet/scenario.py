"""The fleet DST scenario: N tenants, one schedule seed, shared faults.

Duck-types :class:`~repro.dst.scenario.DSTScenario` (``name`` /
``preset`` / ``build`` / ``resolve_plan`` / ``run``), so the standard
:func:`~repro.dst.explore.explore` seed sweep and the greedy
:func:`~repro.dst.shrink.shrink` minimizer drive it unchanged.

The fault plan merges per-tenant recipes into one machine-wide schedule:
the seeded overload burst against the designated victim tenant (``t00``)
plus one crash-and-slowdown plan against the first fig7 tenant.  One
:class:`~repro.dst.invariants.InvariantMonitor` runs per tenant pipeline —
each sweeps the full catalogue, including the two fleet-wide oracles
(which key off ``pipe.fleet`` and are deduplicated across monitors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.simkernel import Environment, shuffle
from repro.faults.plan import FaultPlan
from repro.dst.invariants import InvariantMonitor, Violation
from repro.dst.scenario import (
    DSTReport, default_smoke_plan, repro_command, simulation_error,
)
from repro.fleet.fleet import Fleet, build_mixed_fleet

#: oracles that see the whole fleet through any tenant's monitor — their
#: problem strings already name tenants, so they dedup across monitors
FLEET_WIDE_INVARIANTS = {"no_cross_tenant_node_leak", "quota_conservation"}


def fleet_plan(seed: int, fleet: Fleet) -> FaultPlan:
    """The merged machine-wide fault schedule for one fleet run."""
    from repro.overload.scenario import overload_burst_plan

    merged = FaultPlan(seed=seed)

    def absorb(sub: FaultPlan) -> None:
        for ev in sub.events:
            merged.add(ev.kind, ev.time, ev.targets, ev.duration, ev.severity)

    for tenant in fleet.tenants.values():
        if tenant.spec.overload_burst:
            absorb(overload_burst_plan(seed, tenant.pipe))
    fig7s = [t for _, t in sorted(fleet.tenants.items())
             if t.spec.preset == "fig7"]
    if fig7s:
        absorb(default_smoke_plan(seed + 1, fig7s[0].pipe))
    return merged


@dataclass
class FleetDSTScenario:
    """A seeded, fully reproducible multi-tenant scenario."""

    name: str = "fleet"
    preset: str = "fleet"
    tenants: int = 4
    steps: int = 6
    spares: int = 4
    invariants: Optional[List[str]] = None
    check_interval: float = 10.0
    settle: float = 120.0
    drain: float = 600.0
    hook: Optional[Callable[[Fleet], None]] = field(default=None, repr=False)

    def build(self, seed: Optional[int]) -> Fleet:
        env = Environment() if seed is None else Environment(
            tie_breaker=shuffle(seed)
        )
        return build_mixed_fleet(env, tenants=self.tenants, steps=self.steps,
                                 spares=self.spares)

    def resolve_plan(self, seed: Optional[int],
                     fleet: Fleet) -> Optional[FaultPlan]:
        return fleet_plan(seed if seed is not None else 0, fleet)

    def run(self, seed: Optional[int] = None,
            plan_override: Optional[FaultPlan] = None) -> DSTReport:
        fleet = self.build(seed)
        if self.hook is not None:
            self.hook(fleet)
        plan = (plan_override if plan_override is not None
                else self.resolve_plan(seed, fleet))
        if plan is not None and plan.events:
            fleet.arm_faults(plan)
        monitors = {
            name: InvariantMonitor(tenant.pipe, self.invariants,
                                   interval=self.check_interval)
            for name, tenant in sorted(fleet.tenants.items())
        }
        violations: List[Violation] = []
        try:
            finished = fleet.run(settle=self.settle)
            if all(finished.values()):
                self._drain(fleet)
        except Exception as exc:  # noqa: BLE001 - a program error is a finding
            finished = dict.fromkeys(monitors, False)
            violations.append(simulation_error(fleet.env, exc))
        seen = set()
        for name, monitor in sorted(monitors.items()):
            monitor.note_finished(finished[name])
            for v in monitor.finish():
                if v.invariant in FLEET_WIDE_INVARIANTS:
                    # identical across monitors; report once, unprefixed
                    key = (v.invariant, v.detail)
                    detail = v.detail
                else:
                    key = (name, v.invariant, v.detail)
                    detail = f"[{name}] {v.detail}"
                if key in seen:
                    continue
                seen.add(key)
                violations.append(Violation(v.invariant, v.time, detail))
        return DSTReport(
            scenario=self.name,
            preset=self.preset,
            seed=seed,
            finished=all(finished.values()),
            violations=violations,
            plan_signature=plan.signature() if plan is not None else None,
            plan_events=plan.as_dicts() if plan is not None else [],
            event_log=self._event_log(fleet),
            repro=repro_command(seed, "fleet"),
            events_processed=fleet.env.events_processed,
            final_time=fleet.env.now,
        )

    def _drain(self, fleet: Fleet) -> None:
        """Bounded extra time for recovery backlogs, fleet-wide: the drain
        holds until every tenant's every timestep has a fate."""
        env = fleet.env
        deadline = env.now + self.drain
        while env.now < deadline:
            if not any(t.pipe.fates.unfated() for t in fleet.tenants.values()):
                return
            env.run(until=min(env.now + 30.0, deadline))

    @staticmethod
    def _event_log(fleet: Fleet) -> List[list]:
        """Merged, time-ordered fleet log: injected faults, arbiter
        decisions/marks, and per-tenant telemetry marks (prefixed)."""
        log: List[list] = []
        if fleet.fault_injector is not None:
            for entry in fleet.fault_injector.trace:
                log.append([float(entry[0]), "fault", *map(str, entry[1:])])
        for time, label in fleet.telemetry.events:
            log.append([float(time), "mark", label])
        for name, tenant in sorted(fleet.tenants.items()):
            for time, label in tenant.pipe.telemetry.events:
                log.append([float(time), "mark", f"[{name}] {label}"])
        log.sort(key=lambda row: row[0])
        return log
