"""The DST scenario DSL: preset x fault plan x schedule seed.

A :class:`DSTScenario` names a pipeline preset, a fault-plan recipe, and
the invariants to watch; :meth:`DSTScenario.run` executes it under one
schedule seed and returns a :class:`DSTReport` — the self-contained
record of what happened, including the one-line command that replays the
exact run (same preset, same plan, same seed, same interleaving).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.simkernel import Environment, shuffle
from repro.containers.pipeline import Pipeline
from repro.faults.plan import FaultPlan
from repro.dst.invariants import InvariantMonitor, Violation
from repro.dst.presets import PRESETS
from repro.spec.build import register_fault_recipe

PlanFactory = Callable[[int, Pipeline], FaultPlan]


def _replica_victims(pipe: Pipeline) -> List[int]:
    """Nodes a recoverable plan may hit: the bonds/csym round-robin
    replicas *excluding* each container's first replica (which co-hosts
    its local manager) and every manager's node."""
    gm_id = pipe.global_manager.node.node_id
    manager_ids = {m.node.node_id for m in pipe.managers.values()}
    candidates = []
    for name in ("bonds", "csym"):
        container = pipe.containers.get(name)
        if container is None:
            continue
        for replica in container.replicas[1:]:
            nid = replica.node.node_id
            if nid != gm_id and nid not in manager_ids:
                candidates.append(nid)
    return candidates


@register_fault_recipe("smoke")
def default_smoke_plan(seed: int, pipe: Pipeline) -> FaultPlan:
    """One mid-run crash of a non-essential replica plus one slowdown.

    Victims are drawn from :func:`_replica_victims`, so the scenario is
    always recoverable — the invariants must then hold on every seed.
    """
    wl = pipe.driver.workload
    nominal = wl.total_steps * wl.output_interval
    rng = np.random.default_rng(seed if seed is not None else 0)
    candidates = _replica_victims(pipe)
    plan = FaultPlan(seed=seed if seed is not None else 0)
    if not candidates:
        return plan
    victim = int(candidates[rng.integers(len(candidates))])
    plan.node_crash(float(rng.uniform(0.3, 0.7)) * nominal, victim)
    slow = int(candidates[rng.integers(len(candidates))])
    plan.node_slowdown(
        float(rng.uniform(0.2, 0.8)) * nominal, slow,
        factor=float(rng.uniform(1.5, 3.0)),
        duration=0.15 * nominal,
    )
    return plan


@register_fault_recipe("links")
def links_plan(seed: int, pipe: Pipeline) -> FaultPlan:
    """Link faults only: one partition, one message-drop and one
    link-degrade window, each on a :func:`_replica_victims` node.

    No node fails, so every lost message is a transfer the sender's
    retry ladder must absorb (control sends through
    :class:`~repro.evpath.channel.RetryPolicy`, data pulls through the
    reader's backoff).  The partition is transient — longer than the
    default ladder's 0.35 s, so some sends exhaust it, but shorter than
    the bundled 5 s lease — and the drop window loses each attempt with
    probability 0.2-0.5.
    """
    wl = pipe.driver.workload
    nominal = wl.total_steps * wl.output_interval
    rng = np.random.default_rng((seed, 0x11A5))
    candidates = _replica_victims(pipe)
    plan = FaultPlan(seed=seed)
    if not candidates:
        return plan

    def victim():
        return (int(candidates[rng.integers(len(candidates))]),)

    plan.link_partition(
        float(rng.uniform(0.3, 0.7)) * nominal, victim(),
        duration=float(rng.uniform(0.5, 2.0)),
    )
    plan.message_drop(
        float(rng.uniform(0.2, 0.8)) * nominal, victim(),
        probability=float(rng.uniform(0.2, 0.5)),
        duration=0.15 * nominal,
    )
    plan.link_degrade(
        float(rng.uniform(0.2, 0.8)) * nominal, victim(),
        factor=float(rng.uniform(1.5, 3.0)),
        duration=0.15 * nominal,
    )
    return plan


def overload_plan(seed: int, pipe: Pipeline) -> FaultPlan:
    """The overload schedule: a seeded burst/ramp slowdown (see
    :func:`repro.overload.scenario.overload_burst_plan`)."""
    from repro.overload.scenario import overload_burst_plan

    return overload_burst_plan(seed, pipe)


def plan_for(preset: str) -> PlanFactory:
    """The default plan factory for a preset name."""
    if preset in ("overload", "predictive", "failover"):
        return overload_plan
    if preset == "links":
        return links_plan
    return default_smoke_plan


@dataclass
class DSTReport:
    """Everything needed to understand — and replay — one scenario run."""

    scenario: str
    preset: str
    seed: Optional[int]
    finished: bool
    violations: List[Violation]
    plan_signature: Optional[str]
    plan_events: List[dict]
    event_log: List[list]
    repro: str
    #: the run's engine totals, kept out of :meth:`as_dict`; they feed
    #: :meth:`digest` alongside the event log
    events_processed: int
    final_time: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def digest(self) -> str:
        """sha256 of the events processed, the final clock and the event
        log: equal digests mean the same schedule, to the event."""
        text = json.dumps([self.events_processed, self.final_time, self.event_log])
        return hashlib.sha256(text.encode()).hexdigest()

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "preset": self.preset,
            "seed": self.seed,
            "finished": self.finished,
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "plan_signature": self.plan_signature,
            "plan_events": self.plan_events,
            "event_log": self.event_log,
            "repro": self.repro,
        }


@dataclass
class DSTScenario:
    """A named, fully reproducible test scenario.

    ``plan`` is either a concrete :class:`FaultPlan`, a factory called
    with ``(seed, pipe)`` once the pipeline exists (so schedules can
    target the concrete nodes stages landed on), or ``None`` for a
    fault-free run.  ``hook`` runs right after build — the place tests
    install deliberate bugs for the harness to catch.
    """

    name: str
    preset: str = "smoke"
    plan: Union[FaultPlan, PlanFactory, None] = default_smoke_plan
    invariants: Optional[List[str]] = None
    check_interval: float = 10.0
    settle: float = 120.0
    #: extra simulated seconds granted for recovery backlogs to drain
    #: before the exactly-once completeness check is enforced
    drain: float = 600.0
    hook: Optional[Callable[[Pipeline], None]] = field(default=None, repr=False)

    def build(self, seed: Optional[int]) -> Pipeline:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; known: {sorted(PRESETS)}")
        # seed=None runs the historical insertion-order schedule; an int
        # explores that seed's deterministic permutation of event ties.
        env = Environment() if seed is None else Environment(tie_breaker=shuffle(seed))
        return PRESETS[self.preset](env)

    def resolve_plan(self, seed: Optional[int], pipe: Pipeline) -> Optional[FaultPlan]:
        if self.plan is None:
            return None
        if isinstance(self.plan, FaultPlan):
            return self.plan
        return self.plan(seed if seed is not None else 0, pipe)

    def run(self, seed: Optional[int] = None,
            plan_override: Optional[FaultPlan] = None) -> DSTReport:
        pipe = self.build(seed)
        if self.hook is not None:
            self.hook(pipe)
        plan = plan_override if plan_override is not None else self.resolve_plan(seed, pipe)
        if plan is not None and plan.events:
            pipe.arm_faults(plan)
        monitor = InvariantMonitor(pipe, self.invariants, interval=self.check_interval)
        try:
            finished = pipe.run(settle=self.settle)
            if finished:
                self._drain(pipe)
        except Exception as exc:  # noqa: BLE001 - a program error is a finding
            finished = False
            monitor.violations.append(simulation_error(pipe.env, exc))
        monitor.note_finished(finished)
        violations = monitor.finish()
        return DSTReport(
            scenario=self.name,
            preset=self.preset,
            seed=seed,
            finished=finished,
            violations=violations,
            plan_signature=plan.signature() if plan is not None else None,
            plan_events=plan.as_dicts() if plan is not None else [],
            event_log=self._event_log(pipe),
            repro=self._repro(seed),
            events_processed=pipe.env.events_processed,
            final_time=pipe.env.now,
        )

    def _repro(self, seed: Optional[int]) -> str:
        """The replay one-liner; subclasses extend it with their own flags."""
        return repro_command(seed, self.preset)

    def _drain(self, pipe: Pipeline) -> None:
        """Run on (bounded) until every timestep has exited the pipeline.

        A crash mid-run queues a recovery backlog whose tail can outlive
        ``settle``; giving that tail bounded extra time separates "still
        draining" from "timestep genuinely lost", which is what the
        exactly-once oracle must flag.
        """
        env = pipe.env
        deadline = env.now + self.drain
        while env.now < deadline:
            # a shed timestep has its fate already — only undecided
            # timesteps hold the drain open.  A *spilled* timestep has a
            # fate too, but is owed an eventual replay: keep draining
            # until the spill backlog settles (bounded by the deadline).
            if not pipe.fates.unfated() and not pipe.fates.pending():
                return
            env.run(until=min(env.now + 30.0, deadline))

    @staticmethod
    def _event_log(pipe: Pipeline) -> List[list]:
        """Merged, time-ordered log: injected faults, telemetry marks, and
        finished control-plane protocols."""
        log: List[list] = []
        if pipe.fault_injector is not None:
            for entry in pipe.fault_injector.trace:
                log.append([float(entry[0]), "fault", *map(str, entry[1:])])
        for time, label in pipe.telemetry.events:
            log.append([float(time), "mark", label])
        for trace in pipe.control_trace.records:
            log.append([
                float(trace.started_at), "protocol", trace.protocol,
                trace.subject, trace.status, trace.abort_reason or "",
            ])
        log.sort(key=lambda row: row[0])
        return log


def simulation_error(env: Environment, exc: Exception) -> Violation:
    """A run that a program error ended (say, a checked node move that
    found the wrong owner, or an ``Interrupt`` nobody caught) is a finding
    like any oracle's: reported at the instant it struck, with the error's
    type, so the sweep still writes its seed and repro."""
    return Violation("simulation_error", env.now, f"{type(exc).__name__}: {exc}")


def repro_command(seed: Optional[int], scenario: str = "smoke") -> str:
    """The one-liner that replays this exact run."""
    cmd = "PYTHONPATH=src python -m repro.experiments dst"
    if seed is not None:
        cmd += f" --seed {seed}"
    cmd += " --seeds 1"
    if scenario != "smoke":
        cmd += f" --scenario {scenario}"
    return cmd
