"""The invariant catalogue: always-on oracles over a running pipeline.

Each :class:`Invariant` states a property that must hold on *every*
schedule and under *every* fault plan — the correctness claims the DST
harness checks while :class:`~repro.dst.scenario.DSTScenario` sweeps
seeds.  Checkers are registered in :data:`INVARIANTS` and instantiated
per run by :class:`InvariantMonitor`, which sweeps them periodically in
simulated time and once more after the run settles (``final=True``,
where properties of a finished run, such as every timestep having a
fate, become checkable).

Checkers must be *sound on legal schedules*: a property that can be
transiently violated mid-protocol (a timestep between pull and ack) is
only asserted once the run is over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.analytics.predictive import SCOPE
from repro.cluster.scheduler import FAILED, FREE
from repro.perf.registry import REGISTRY


@dataclass(frozen=True)
class Violation:
    """One invariant violation: which oracle, when, and what it saw."""

    invariant: str
    time: float
    detail: str

    def as_dict(self) -> dict:
        return {"invariant": self.invariant, "time": self.time, "detail": self.detail}


class Invariant:
    """Base class: subclasses override :meth:`check` (and optionally keep
    state across sweeps, reset via :meth:`reset`)."""

    name = "invariant"

    def reset(self, pipe) -> None:
        """Called once before the run starts."""

    def check(self, pipe, final: bool) -> List[str]:
        """Return a list of problem strings (empty = invariant holds)."""
        raise NotImplementedError


#: name -> checker class; ``InvariantMonitor`` instantiates from here.
INVARIANTS: Dict[str, Type[Invariant]] = {}


def register(cls: Type[Invariant]) -> Type[Invariant]:
    INVARIANTS[cls.name] = cls
    return cls


@register
class NodeConservation(Invariant):
    """Every staging node has one owner that answers for it, at every sweep.

    The scheduler's owner map covers the pool exactly; a node that is not
    free, failed or held by a protocol run is a live replica or standby
    node of the container that owns it; a live replica's node is owned by
    its container, or by a running protocol (a spawn in progress); no node
    is held by a protocol run that has ended (a leak: its abort or handoff
    never moved the node on); and no free node is crashed.
    """

    name = "node_conservation"

    def check(self, pipe, final: bool) -> List[str]:
        census = pipe.node_census()
        owner, ended = census["owner"], census["ended"]
        problems: List[str] = []
        stray = sorted(set(owner) ^ census["pool"])
        if stray:
            problems.append(f"owner map and pool disagree on nodes: {stray}")
        for node, held in owner.items():
            if held in (FREE, FAILED) or held.startswith("protocol:"):
                continue
            if node not in census["members"].get(held, ()):
                problems.append(
                    f"node {node} unaccounted for: owned by {held}, which "
                    f"runs no live replica and keeps no standby node on it"
                )
        for node, mine in census["replicas"].items():
            held = owner.get(node)
            spawning = held is not None and held.startswith("protocol:")
            if held != mine and not (spawning and node not in ended):
                problems.append(
                    f"live replica of {mine} on node {node} owned by {held}"
                )
        for node, run in ended.items():
            problems.append(f"node {node} leaked: still held by ended {run}")
        dead = sorted(n for n in census["crashed"] if owner.get(n) == FREE)
        if dead:
            problems.append(f"crashed nodes back in the free pool: {dead}")
        return problems


@register
class ExactlyOneFate(Invariant):
    """Every emitted timestep gets exactly one fate: delivered once per
    sink, shed by one decision, or spilled and then replayed/superseded.

    The pipeline's :class:`~repro.fate.FateLedger` enforces the rule where
    fates are written and parks every refused transition (a duplicate
    delivery, a second shed decision, a shed of a spilled step, a bad
    settle) in ``violations``; this oracle drains them each sweep.  Once
    the driver finished, the final sweep also flags timesteps that never
    got a fate at all.
    """

    name = "exactly_one_fate"

    def __init__(self):
        self._finished = False

    def note_finished(self, finished: bool) -> None:
        self._finished = finished

    def check(self, pipe, final: bool) -> List[str]:
        problems = list(pipe.fates.violations)
        if final and self._finished:
            missing = sorted(pipe.fates.unfated())
            if missing:
                problems.append(
                    f"timesteps with no fate (neither delivered, shed, nor "
                    f"spilled): {missing[:10]}{'...' if len(missing) > 10 else ''}"
                )
        return problems


@register
class NoGapNoDupAfterHandover(Invariant):
    """Every replay→live handover is gapless and duplicate-free.

    For each completed ``replay_catchup`` handover: the snapshot batch is
    fully settled (replayed ∪ superseded == expected, disjoint), segments
    were delivered in strictly increasing sequence order, the watermark is
    the batch maximum, and no sequence number is claimed by two handovers.

    Vacuous without failover: a NoFailover records no handovers.
    """

    name = "no_gap_no_dup_after_handover"

    def check(self, pipe, final: bool) -> List[str]:
        problems: List[str] = []
        claimed: Dict[int, float] = {}
        for hand in pipe.failover.handovers:
            head = f"handover@{hand['time']}"
            expected = set(hand["expected"])
            replayed = set(hand["replayed"])
            superseded = set(hand["superseded"])
            if replayed & superseded:
                problems.append(
                    f"{head}: seqs both replayed and superseded: "
                    f"{sorted(replayed & superseded)}"
                )
            gaps = expected - replayed - superseded
            if gaps:
                problems.append(
                    f"{head}: unsettled seqs at handover (gap): {sorted(gaps)}"
                )
            extra = (replayed | superseded) - expected
            if extra:
                problems.append(
                    f"{head}: settled seqs outside the snapshot: {sorted(extra)}"
                )
            if expected and hand["watermark"] != max(expected):
                problems.append(
                    f"{head}: watermark {hand['watermark']} != batch max "
                    f"{max(expected)}"
                )
            order = hand["order"]
            if any(b <= a for a, b in zip(order, order[1:])):
                problems.append(f"{head}: replay out of sequence order: {order}")
            for seq in expected:
                if seq in claimed:
                    problems.append(
                        f"{head}: seq {seq} already claimed by "
                        f"handover@{claimed[seq]} (duplicate)"
                    )
                claimed[seq] = hand["time"]
        return problems


@register
class ControlPlaneWellFormed(Invariant):
    """Every finished protocol trace is structurally sound: rounds in
    order, committed traces uncompensated, aborted traces compensated in
    reverse execution order (see :meth:`ProtocolTrace.audit`)."""

    name = "controlplane_well_formed"

    def check(self, pipe, final: bool) -> List[str]:
        problems: List[str] = []
        for trace in pipe.control_trace.records:
            if trace.status == "running":
                continue
            problems.extend(trace.audit())
        return problems


class D2TPresumedAbort:
    """D2T safety: a transaction commits only on a full, unanimous yes.

    Presumed abort means any silence (a timed-out group) or any no vote
    must yield an abort decision; a recorded commit with a missing or
    negative vote is a protocol violation.  Not a registered invariant:
    no pipeline runs D2T (a pipeline's own trades run ``gm_steal``), so
    the audit runs where D2T does — ``run_fig6`` passes every outcome.
    """

    @staticmethod
    def audit_outcomes(outcomes) -> List[str]:
        problems: List[str] = []
        for out in outcomes:
            head = f"txn-{out.txn_id}"
            if out.committed:
                if not out.votes:
                    problems.append(f"{head}: committed with no votes collected")
                elif not all(out.votes):
                    problems.append(f"{head}: committed over a no vote: {out.votes}")
                if out.timed_out_groups:
                    problems.append(
                        f"{head}: committed despite timed-out groups "
                        f"{out.timed_out_groups} (presumed abort)"
                    )
            if out.decided_at < out.started_at or out.finished_at < out.decided_at:
                problems.append(f"{head}: non-monotone phase timestamps")
        return problems


@register
class MonotonePerf(Invariant):
    """Accounting only accumulates: perf timers/counters never decrease
    between sweeps, per-timer stats stay ordered (min <= mean <= max), and
    wall-clock-indexed telemetry series are recorded in time order
    (``*_by_step`` series are indexed by timestep, not time, and exempt).
    """

    name = "monotone_perf"

    def __init__(self):
        self._timers: Dict[str, tuple] = {}
        self._counters: Dict[str, int] = {}

    def reset(self, pipe) -> None:
        self._timers.clear()
        self._counters.clear()

    def check(self, pipe, final: bool) -> List[str]:
        problems: List[str] = []
        for name, stats in REGISTRY._timers.items():
            prev = self._timers.get(name)
            cur = (stats.calls, stats.total_seconds)
            if prev is not None and (cur[0] < prev[0] or cur[1] < prev[1] - 1e-12):
                problems.append(f"timer {name!r} went backwards: {prev} -> {cur}")
            self._timers[name] = cur
            if stats.calls and not (
                stats.min_seconds - 1e-12
                <= stats.mean_seconds
                <= stats.max_seconds + 1e-12
            ):
                problems.append(f"timer {name!r} stats out of order: {stats.as_dict()}")
        for name, value in REGISTRY._counters.items():
            prev = self._counters.get(name)
            if prev is not None and value < prev:
                problems.append(f"counter {name!r} went backwards: {prev} -> {value}")
            self._counters[name] = value
        for (scope, metric), series in pipe.telemetry._series.items():
            if metric.endswith("_by_step"):
                continue
            times = series.times
            for i in range(1, len(times)):
                if times[i] < times[i - 1]:
                    problems.append(
                        f"series {scope}.{metric} recorded out of time order "
                        f"at index {i}: {times[i - 1]} -> {times[i]}"
                    )
                    break
        return problems


@register
class PredictiveActionsBounded(Invariant):
    """Forecast-driven actions stay evidenced and rung-by-rung.

    Three properties must hold on every schedule:

    * every proactive transition in the degradation trace is preceded by
      recorded forecaster evidence — a ``signal.*`` sample in the
      telemetry's ``analytics`` scope at or before the transition time
      (the controllers emit the signal *before* executing the protocol);
    * the ladder never skips rungs: consecutive transitions of one
      controller kind change its level by exactly one; and
    * forecast-built rungs stay bounded and harmless — at most
      ``max_proactive_level`` proactive rungs on the brownout stack at
      once, and every proactive brownout action is one of the configured
      non-shedding ``proactive_kinds``.

    A reactive pipeline's :class:`~repro.analytics.predictive.NoForecast`
    takes no proactive action, so there only the rung-by-rung property
    has anything to check.
    """

    name = "predictive_actions_bounded"

    def check(self, pipe, final: bool) -> List[str]:
        analytics = pipe.analytics
        problems: List[str] = []
        telemetry = pipe.telemetry
        signal_times = [
            ts
            for name in telemetry.metrics(SCOPE) if name.startswith("signal.")
            for ts in telemetry.get(SCOPE, name).times
        ]
        trace = pipe.degradation
        levels: Dict[str, int] = {}
        for step in trace.steps:
            prev = levels.get(step.kind, 0)
            if abs(step.level - prev) != 1:
                problems.append(
                    f"{step.kind} ladder skipped rungs at t={step.time}: "
                    f"level {prev} -> {step.level} ({step.action})"
                )
            levels[step.kind] = step.level
            if not step.detail.get("proactive"):
                continue
            if not any(ts <= step.time for ts in signal_times):
                problems.append(
                    f"proactive {step.kind}/{step.action} at t={step.time} "
                    f"has no preceding forecaster signal in telemetry"
                )
            if (step.kind == "brownout"
                    and step.action not in analytics.config.proactive_kinds):
                problems.append(
                    f"proactive brownout action {step.action!r} at "
                    f"t={step.time} outside proactive_kinds "
                    f"{analytics.config.proactive_kinds}"
                )
        cap = analytics.config.max_proactive_level
        count = sum(
            1 for entry in pipe.brownout._stack if entry[-1] == "proactive"
        )
        if count > cap:
            problems.append(
                f"{count} proactive rungs on the brownout stack "
                f"exceeds max_proactive_level {cap}"
            )
        return problems


@register
class NoCrossTenantNodeLeak(Invariant):
    """Fleet-wide exclusivity: every staging node lives in exactly one
    place — one tenant's pool or the arbiter's spare list.  (A tenant's
    free nodes stay inside its pool: ``node_conservation`` checks that
    each owner map covers exactly its pool.)

    No-op on single-pipeline runs (``pipe.fleet is None``): always-on, but
    only a fleet has cross-tenant structure to leak across.
    """

    name = "no_cross_tenant_node_leak"

    def check(self, pipe, final: bool) -> List[str]:
        fleet = getattr(pipe, "fleet", None)
        if fleet is None:
            return []
        problems: List[str] = []
        owner: Dict[int, str] = {}
        for name in sorted(fleet.tenants):
            for node in fleet.tenants[name].pipe.scheduler.pool.nodes:
                if node.node_id in owner:
                    problems.append(
                        f"node {node.node_id} in two tenant pools: "
                        f"{owner[node.node_id]!r} and {name!r}"
                    )
                owner[node.node_id] = name
        for node in fleet.arbiter.spares:
            if node.node_id in owner:
                problems.append(
                    f"node {node.node_id} both an arbiter spare and held by "
                    f"{owner[node.node_id]!r}"
                )
        return problems


@register
class QuotaConservation(Invariant):
    """Fleet-wide conservation: Σ tenant holdings + arbiter spares equals
    the registered pool size, and no tenant exceeds its burst ceiling.

    Two layers: the arbiter audits itself after *every* mutation (event
    time) and parks failures in ``arbiter.violations``; this oracle drains
    that list each sweep and re-checks the census independently (so a
    mutation that bypassed the arbiter is still caught).  No-op without a
    fleet.
    """

    name = "quota_conservation"

    def check(self, pipe, final: bool) -> List[str]:
        fleet = getattr(pipe, "fleet", None)
        if fleet is None:
            return []
        arbiter = fleet.arbiter
        problems: List[str] = list(arbiter.violations)
        total = len(arbiter.spares) + sum(
            len(t.pipe.scheduler.pool.nodes) for t in fleet.tenants.values()
        )
        if total != arbiter._expected_total:
            problems.append(
                f"sweep census: holdings+spares = {total}, "
                f"expected {arbiter._expected_total}"
            )
        for name in sorted(fleet.tenants):
            quota = arbiter.tenants[name].quota
            held = len(fleet.tenants[name].pipe.scheduler.pool.nodes)
            if held > quota.burst:
                problems.append(
                    f"sweep census: tenant {name!r} holds {held} > burst {quota.burst}"
                )
        return problems


class InvariantMonitor:
    """Periodically sweeps a set of invariant checkers over a pipeline.

    Attach before (or just after) ``pipe.run()`` starts; the monitor
    re-checks every ``interval`` simulated seconds and deduplicates
    repeated reports of the same problem.  Call :meth:`finish` after the
    run for the final sweep and the violation list.
    """

    def __init__(self, pipe, invariants: Optional[List[str]] = None,
                 interval: float = 10.0):
        self.pipe = pipe
        names = list(INVARIANTS) if invariants is None else list(invariants)
        unknown = [n for n in names if n not in INVARIANTS]
        if unknown:
            raise ValueError(f"unknown invariants {unknown}; known: {sorted(INVARIANTS)}")
        self.checkers: List[Invariant] = [INVARIANTS[n]() for n in names]
        for checker in self.checkers:
            checker.reset(pipe)
        self.violations: List[Violation] = []
        self._seen = set()
        self.sweeps = 0
        self.interval = interval
        self._proc = pipe.env.process(self._loop(), name="dst-monitor")

    def _loop(self):
        while True:
            yield self.pipe.env.timeout(self.interval)
            self.sweep(final=False)

    def sweep(self, final: bool) -> None:
        self.sweeps += 1
        now = self.pipe.env.now
        for checker in self.checkers:
            try:
                problems = checker.check(self.pipe, final)
            except Exception as exc:  # noqa: BLE001 - a broken oracle is a finding
                problems = [f"checker raised {exc!r}"]
            for problem in problems:
                key = (checker.name, problem)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self.violations.append(Violation(checker.name, now, problem))

    def note_finished(self, finished: bool) -> None:
        for checker in self.checkers:
            if hasattr(checker, "note_finished"):
                checker.note_finished(finished)

    def finish(self) -> List[Violation]:
        self.sweep(final=True)
        return self.violations
