"""The SLA brownout ladder: escalate under violation, de-escalate with hysteresis.

The paper's global manager reacts to a sustained SLA violation with a fixed
remediation order — grow the bottleneck from spares, steal from
over-provisioned containers, lower a container's output frequency, and
finally take the non-essential bottleneck (plus downstream dependents)
offline — but the offline decision is manual and permanent.  The
:class:`BrownoutController` automates that ladder as two control-plane
protocols (``brownout_escalate`` / ``brownout_recover`` in
:mod:`repro.controlplane.protocols`) and adds the half the paper leaves
open: *de-escalation with hysteresis*.  Every escalation pushes an undo
entry; once the observed latency holds below :data:`RECOVER_RATIO` x SLA for
a :data:`DWELL`, the ladder unwinds one rung per dwell — restoring
strides and re-activating pruned containers via
:meth:`~repro.containers.global_manager.GlobalManager.activate` — until the
pipeline is fully restored.

Every transition (escalation, recovery, and the backpressure controller's
driver-stride moves) lands in one structured :class:`DegradationTrace`, the
record the overload experiment and the acceptance tests assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simkernel import Interrupt
from repro.simkernel.errors import SimulationError
from repro.containers.policy import ManagementPolicy
from repro.controlplane import ProtocolAbort, ProtocolExit
from repro.perf.registry import REGISTRY

#: escalating actions, in ladder order (rung 1..4)
ESCALATIONS = ("increase", "steal", "stride", "offline")

# The ladder's tuning: one value for every pipeline that runs it.
#: seconds between SLA checks: two of the 5 s metric reports the bundled
#: brownout presets send, so one late report cannot trip a rung alone
CHECK_INTERVAL = 10.0
#: escalate while max(latency / (sla_interval * sla_factor)) exceeds this:
#: the SLA itself
ESCALATE_RATIO = 1.0
#: recovery requires the ratio to hold at or below this; the gap to
#: ESCALATE_RATIO is the hysteresis that keeps a rung from flapping
RECOVER_RATIO = 0.7
#: seconds the ratio must hold at or below RECOVER_RATIO per unwound rung:
#: three checks of confirmed calm
DWELL = 30.0
#: cap on the sampling stride the ladder imposes on a stage: three
#: doublings, then the offline rung
MAX_STAGE_STRIDE = 8


class NullPolicy(ManagementPolicy):
    """A policy that never acts — installed when the brownout ladder owns
    remediation, so the legacy control loop cannot fight it."""

    def decide(self, states, spare_nodes, sla_interval, now, horizon):
        return []


@dataclass(frozen=True)
class DegradationStep:
    """One recorded transition of the pipeline's degradation state."""

    time: float
    #: which controller moved: "backpressure" (driver stride) or "brownout"
    kind: str
    #: the transition ("stride_up", "increase", "undo_offline", ...)
    action: str
    #: that controller's degradation level *after* the transition
    level: int
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "action": self.action,
            "level": self.level,
            "detail": dict(self.detail),
        }


class DegradationTrace:
    """The structured record of every degradation transition.

    Tracks a level per controller kind; the pipeline is *degraded* while
    any kind sits above level 0, and *fully restored* once every kind has
    returned to 0 after having left it.
    """

    def __init__(self):
        self.steps: List[DegradationStep] = []
        self._levels: Dict[str, int] = {}
        self._intervals: List[tuple] = []
        self._entered: Optional[float] = None
        #: callables invoked as ``fn(step, trace)`` after every recorded
        #: transition — this is how ``time_in_degraded`` and level deltas
        #: reach live consumers (telemetry, the failover manager) mid-run
        #: instead of only at pipeline end
        self.subscribers: List = []

    def record(self, time: float, kind: str, action: str, level: int, **detail) -> None:
        prev = self.overall_level
        step = DegradationStep(float(time), kind, action, int(level), detail)
        self.steps.append(step)
        self._levels[kind] = int(level)
        cur = self.overall_level
        if prev == 0 and cur > 0:
            self._entered = float(time)
        elif prev > 0 and cur == 0 and self._entered is not None:
            self._intervals.append((self._entered, float(time)))
            self._entered = None
        for fn in self.subscribers:
            fn(step, self)

    # -- summary metrics ----------------------------------------------------------

    @property
    def overall_level(self) -> int:
        return max(self._levels.values(), default=0)

    @property
    def max_level(self) -> int:
        return max((s.level for s in self.steps), default=0)

    @property
    def degraded(self) -> bool:
        return self.overall_level > 0

    @property
    def fully_restored(self) -> bool:
        """Degradation happened and has been completely unwound."""
        return bool(self.steps) and self.overall_level == 0

    def time_in_degraded(self, now: Optional[float] = None) -> float:
        """Total simulated seconds spent above level 0."""
        total = sum(end - start for start, end in self._intervals)
        if self._entered is not None and now is not None:
            total += max(0.0, now - self._entered)
        return total

    @property
    def recovery_dwell(self) -> Optional[float]:
        """Seconds from the last escalating step to full restoration."""
        if not self._intervals:
            return None
        start, end = self._intervals[-1]
        last_up = max(
            (s.time for s in self.steps
             if s.time <= end and (s.action in ESCALATIONS or s.action == "stride_up")),
            default=start,
        )
        return end - last_up

    def as_dicts(self) -> List[dict]:
        return [s.as_dict() for s in self.steps]

    def __repr__(self) -> str:
        return (
            f"<DegradationTrace {len(self.steps)} steps level={self.overall_level} "
            f"max={self.max_level}>"
        )


class NoBrownout:
    """The brownout ladder off: nothing escalates, the undo stack stays empty."""

    _stack = ()

    def stop(self) -> None:
        pass


class BrownoutController:
    """Drives the escalate/recover protocols off the GM's metric snapshot."""

    def __init__(self, env, global_manager, predictor,
                 degradation: DegradationTrace):
        self.env = env
        self.gm = global_manager
        self.telemetry = global_manager.telemetry
        self.trace = degradation
        #: the pipeline's forecaster; a
        #: :class:`~repro.analytics.predictive.NoForecast` keeps it reactive
        self.predictor = predictor
        #: undo stack: one entry per escalation, unwound in reverse
        self._stack: List[tuple] = []
        self._ok_since: Optional[float] = None
        # Premature-recovery memory (predictive only): when the offline
        # rung is rebuilt shortly after its last undo, the next
        # undo_offline waits a doubled dwell — the catch-up flood that
        # re-wedged once will re-wedge again on the same schedule.
        self._last_undo_offline: Optional[float] = None
        self._offline_backoff: float = 1.0
        self._stopped = False
        self._proc = env.process(self._run(), name="brownout")

    @property
    def level(self) -> int:
        return len(self._stack)

    def stop(self) -> None:
        self._stopped = True
        if self._proc.is_alive:
            self._proc.interrupt("stop")

    # -- the control loop ----------------------------------------------------------

    def _run(self):
        from repro.controlplane import protocols

        while True:
            try:
                yield self.env.timeout(self._check_interval())
            except Interrupt:
                return
            if self._stopped:
                return
            ratio, worst = self._sla_ratio()
            if ratio is None:
                continue
            self.telemetry.record("overload", "sla_ratio", self.env.now, ratio)
            exec_ratio, proactive = ratio, False
            if ratio <= ESCALATE_RATIO:
                risk = self._forecast_risk()
                if risk is not None:
                    worst, exec_ratio, proactive = risk[0], risk[1], True
            if ratio > ESCALATE_RATIO or proactive:
                self._ok_since = None
                data = {"bc": self, "gm": self.gm, "worst": worst,
                        "ratio": exec_ratio, "proactive": proactive}
                if proactive:
                    # The evidence lands in telemetry *before* the
                    # protocol runs; the predictive_actions_bounded
                    # invariant audits this ordering.
                    self.predictor.signal("sla_risk", exec_ratio, subject=worst)
                request = self.gm.control_lock.request()
                yield request
                try:
                    yield self.gm.engine.execute(
                        protocols.BROWNOUT_ESCALATE, subject=worst, data=data,
                    )
                finally:
                    self.gm.control_lock.release(request)
            elif ratio <= RECOVER_RATIO and self._stack:
                if self._ok_since is None:
                    self._ok_since = self.env.now
                elif self.env.now - self._ok_since >= self._recovery_dwell():
                    request = self.gm.control_lock.request()
                    yield request
                    try:
                        yield self.gm.engine.execute(
                            protocols.BROWNOUT_RECOVER,
                            subject=self._stack[-1][0] if self._stack else "",
                            data={"bc": self, "gm": self.gm},
                        )
                    finally:
                        self.gm.control_lock.release(request)
                    # One rung per dwell: the next unwind needs a fresh hold.
                    self._ok_since = self.env.now
            elif ratio > RECOVER_RATIO:
                # Inside the hysteresis band: neither escalate nor count
                # toward recovery dwell.
                self._ok_since = None

    def _check_interval(self) -> float:
        """Seconds until the next SLA check.

        When the forecaster confirms the violation will persist, the
        control loop tightens: the ladder still climbs one rung per
        check — never skipping — but checks come ``escalation_check_factor``
        times as often, so the shedding stride rungs give way to the
        queueing ``offline`` rung sooner.  A reactive controller's factor
        is 1.0: it always paces at :data:`CHECK_INTERVAL`.
        """
        interval = CHECK_INTERVAL
        factor = self.predictor.config.escalation_check_factor
        risk = self.predictor.sla_risk()
        if risk is not None and risk[1] > self.predictor.config.risk_threshold:
            return interval * factor
        # Mid-recovery with the forecast confirming calm, checks tighten
        # too: the shortened dwell is otherwise quantized back up to the
        # reactive check cadence.
        if self._stack and (risk is None or risk[1] <= RECOVER_RATIO):
            return interval * factor
        return interval

    def _forecast_risk(self):
        """(name, forecast ratio) when a proactive escalation is warranted.

        Bounded two ways: the forecast SLA ratio must clear the risk
        threshold, and forecasts alone may only hold
        ``max_proactive_level`` rungs on the stack at once — past that,
        growing the ladder again takes an observed violation.  Only
        forecast-built rungs count against the budget: a deep ladder of
        observed rungs must not lock out the proactive capacity rung
        that would absorb, say, a post-recovery catch-up surge.
        """
        pcfg = self.predictor.config
        proactive_rungs = sum(
            1 for entry in self._stack if entry[-1] == "proactive"
        )
        if proactive_rungs >= pcfg.max_proactive_level:
            return None
        risk = self.predictor.sla_risk()
        if risk is None or risk[1] <= pcfg.risk_threshold:
            return None
        # Arming guard: only act on a forecast while a *fresh* observed
        # ratio is already out of the recovery band.  A calm pipeline with
        # a stale high EWMA tail must not re-escalate (it would oscillate
        # against the recovery dwell), a container that stopped reporting
        # (offline, idle) must not be judged on its frozen last sample,
        # and startup ramps must not trip the ladder.
        last = self.predictor.last(f"{risk[0]}.sla_ratio")
        if last is None or last[1] <= RECOVER_RATIO:
            return None
        if self.env.now - last[0] > 2.0 * pcfg.sample_interval:
            return None
        return risk

    def _recovery_dwell(self) -> float:
        """The hold time before unwinding a rung.

        A forecast that agrees the pipeline will *stay* calm shortens the
        dwell — recovery accelerates when level and trend both sit below
        the recovery threshold.
        """
        dwell = DWELL
        if (self._stack and self._stack[-1][0] == "offline"
                and self._offline_backoff > 1.0):
            return dwell * self._offline_backoff
        risk = self.predictor.sla_risk()
        if risk is not None and risk[1] <= RECOVER_RATIO:
            dwell *= self.predictor.config.recovery_dwell_factor
        return dwell

    def _sla_ratio(self):
        """Worst latency / SLA ratio over online, active containers."""
        worst_name, worst_ratio = None, None
        for name, state in self.gm.snapshot().items():
            if state.offline or not state.active or state.units <= 0:
                continue
            latency = state.effective_latency()
            if latency is None:
                continue
            ratio = latency / (self.gm.sla_interval * state.sla_factor)
            if worst_ratio is None or ratio > worst_ratio:
                worst_name, worst_ratio = name, ratio
        return worst_ratio, worst_name

    # -- escalation protocol rounds --------------------------------------------------

    def _esc_observe(self, ctx) -> None:
        states = self.gm.snapshot()
        action = self._choose(states, ctx["worst"])
        if action is None:
            raise ProtocolExit({"action": None})
        if (ctx.get("proactive")
                and action["kind"] not in self.predictor.config.proactive_kinds):
            # A forecast alone never sheds work: the stride/offline rungs
            # wait for an observed violation.
            raise ProtocolExit({"action": None, "deferred": action["kind"]})
        ctx["action"] = action
        label = f"observe: {ctx['worst']} at {ctx['ratio']:.2f}x SLA"
        if ctx.get("proactive"):
            label += " (forecast)"
        ctx.round(label)

    def _choose(self, states, worst: str) -> Optional[dict]:
        """First applicable rung of the ladder, in escalation order."""
        gm = self.gm
        online = {
            name: s for name, s in states.items()
            if not s.offline and s.active and s.units > 0
        }
        worst_state = online.get(worst)
        # Spare capacity includes what the fleet arbiter would grant: in a
        # fleet, rung 1 borrows shared spares before the ladder escalates.
        free = gm.spare_capacity()
        # Rung 1: grow the bottleneck from the spare pool.
        if worst_state is not None and free > 0 and (worst_state.shortfall or 0) > 0:
            return {"kind": "increase", "name": worst,
                    "count": min(int(worst_state.shortfall), free)}
        # Rung 2: steal from an over-provisioned donor.
        donors = [
            s for name, s in online.items()
            if name != worst and (s.headroom or 0) > 0 and s.units > 1
        ]
        if worst_state is not None and donors:
            donor = max(donors, key=lambda s: (s.headroom, s.name))
            return {"kind": "steal", "donor": donor.name, "recipient": worst,
                    "count": 1}
        # Rung 3: raise the sampling stride of the worst non-essential stage.
        candidates = sorted(
            (s for s in online.values() if not s.essential),
            key=lambda s: -(s.effective_latency() or 0.0),
        )
        for state in candidates:
            stride = gm.locals[state.name].container.stride
            if stride < MAX_STAGE_STRIDE:
                return {"kind": "stride", "name": state.name,
                        "old": stride, "new": stride * 2}
        # Rung 4: offline the worst non-essential stage (and dependents).
        for state in candidates:
            return {"kind": "offline", "name": state.name}
        return None

    def _esc_act(self, ctx):
        action = ctx["action"]
        gm = self.gm
        try:
            # Forecast-built rungs carry a trailing marker so the proactive
            # budget counts them (and only them) while they sit on the
            # stack; both kinds unwind as no-ops, so the longer tuples
            # never reach a positional unpack.
            tag = ("proactive",) if ctx.get("proactive") else ()
            if action["kind"] == "increase":
                yield gm.increase(action["name"], action["count"])
                self._stack.append(
                    ("increase", action["name"], action["count"]) + tag
                )
            elif action["kind"] == "steal":
                freed = yield gm.steal(
                    action["donor"], action["recipient"], action["count"]
                )
                if not freed:
                    raise ProtocolAbort("steal yielded no nodes")
                self._stack.append(
                    ("steal", action["donor"], action["recipient"], len(freed)) + tag
                )
            elif action["kind"] == "stride":
                accepted = yield gm.set_stride(action["name"], action["new"])
                if not accepted:
                    raise ProtocolAbort(f"stride refused by {action['name']}")
                self._stack.append(("stride", action["name"], action["old"]))
            elif action["kind"] == "offline":
                cap = self.predictor.config.offline_backoff_cap
                if (self._last_undo_offline is not None
                        and self.env.now - self._last_undo_offline
                        <= 2.0 * DWELL):
                    self._offline_backoff = min(self._offline_backoff * 2.0, cap)
                else:
                    self._offline_backoff = 1.0
                # Capture what the cascade will take down (and at what size)
                # before it runs, so recovery can rebuild upstream-first.
                import networkx as nx

                name = action["name"]
                affected = [name] + gm.dependents_of(name)
                order = [
                    c for c in nx.topological_sort(gm.dependencies)
                    if c in affected and not gm.locals[c].container.offline
                ]
                units_by = {c: gm.locals[c].container.units for c in order}
                yield gm.take_offline(name)
                self._stack.append(("offline", order, units_by))
        except SimulationError as exc:
            raise ProtocolAbort(f"escalation failed: {exc}") from exc

    def _esc_record(self, ctx) -> None:
        action = ctx["action"]
        level = self.level
        detail = {k: v for k, v in action.items() if k != "kind"}
        if ctx.get("proactive"):
            detail["proactive"] = True
            detail["forecast_ratio"] = round(ctx["ratio"], 4)
        self.trace.record(self.env.now, "brownout", action["kind"], level, **detail)
        self.telemetry.mark(
            self.env.now, f"brownout escalate L{level}: {action['kind']}"
        )
        REGISTRY.count("overload.escalations")
        if self.gm.arbiter is not None:
            REGISTRY.count(f"fleet.{self.gm.tenant}.escalations")
        ctx.result = {"action": action, "level": level}

    # -- recovery protocol rounds -----------------------------------------------------

    def _rec_observe(self, ctx) -> None:
        if not self._stack:
            raise ProtocolExit({"undone": None})
        index = self._choose_unwind()
        ctx["entry_index"] = index
        ctx["entry"] = self._stack[index]
        ctx.round(f"observe: unwind {ctx['entry'][0]}")

    def _choose_unwind(self) -> int:
        """Stack index recovery should undo next.

        Reactive recovery is strict LIFO (a ``NoForecast`` reports zero
        shed pressure everywhere).  With a forecaster attached the
        choice is demand-guided: among the *topmost* stride rung of each
        strided container, undo the one whose stage shed the most work
        inside the trailing forecast horizon — that stride is the one
        actively decimating live data, while a stride on a quiet stage
        can wait.  Same-container rungs still unwind in reverse push
        order (only the topmost per container is a candidate), ``offline``
        still unwinds first (it is always the top of the stack when
        present), and zero shed pressure everywhere degrades to LIFO.
        """
        top = len(self._stack) - 1
        if self._stack[top][0] != "stride":
            return top
        latest: dict = {}
        for i, entry in enumerate(self._stack):
            if entry[0] == "stride":
                latest[entry[1]] = i
        if len(latest) <= 1:
            return top
        return max(
            latest.values(),
            key=lambda i: (self.predictor.shed_pressure(self._stack[i][1]), i),
        )

    def _rec_act(self, ctx):
        entry = ctx["entry"]
        gm = self.gm
        try:
            if entry[0] == "stride":
                _, name, old = entry
                accepted = yield gm.set_stride(name, old)
                if not accepted:
                    raise ProtocolAbort(f"stride restore refused by {name}")
            elif entry[0] == "offline":
                _, order, units_by = entry
                # Upstream-first so each reactivated stage has somewhere
                # to send its output by the time data flows again.
                for cname in order:
                    if units_by.get(cname, 0) > 0:
                        yield gm.activate(cname, units=units_by[cname],
                                          holder=ctx.trace)
                    else:
                        # a standby dependent swept up by the cascade: it
                        # had no replicas to rebuild — return it to standby
                        gm.locals[cname].container.offline = False
            else:
                # increase/steal: the extra capacity stays where it is —
                # de-escalation restores function, it does not shrink.
                yield self.env.timeout(0)
        except SimulationError as exc:
            raise ProtocolAbort(f"recovery failed: {exc}") from exc
        if entry[0] == "offline":
            self._last_undo_offline = self.env.now
        self._stack.pop(ctx.get("entry_index", len(self._stack) - 1))

    def _rec_record(self, ctx) -> None:
        entry = ctx["entry"]
        level = self.level
        self.trace.record(self.env.now, "brownout", f"undo_{entry[0]}", level)
        self.telemetry.mark(
            self.env.now, f"brownout recover L{level}: undo {entry[0]}"
        )
        REGISTRY.count("overload.recoveries")
        if self.gm.arbiter is not None:
            REGISTRY.count(f"fleet.{self.gm.tenant}.recoveries")
        ctx.result = {"undone": entry[0], "level": level}
