"""The DST harness tests: oracles, exploration, shrinking, and the
end-to-end acceptance case — a deliberately planted bug is caught,
reported with its seed, and shrunk to a minimal fault plan."""

import pytest

from repro.controlplane.trace import ProtocolTrace, RoundTrace
from repro.faults import FaultPlan
from repro.transactions.coordinator import TxnOutcome
from repro.dst import (
    INVARIANTS,
    DSTScenario,
    InvariantMonitor,
    explore,
    shrink,
)
from repro.dst.invariants import D2TPresumedAbort
from repro.fate import REFUSED, SHED

pytestmark = pytest.mark.dst


# -- trace well-formedness oracle --------------------------------------------------


def _trace(status, rounds, compensated=(), abort_reason=None):
    t = ProtocolTrace(protocol="demo", subject="x", started_at=0.0,
                      finished_at=10.0, status=status,
                      abort_reason=abort_reason, compensated=list(compensated))
    clock = 0.0
    for name, rstatus in rounds:
        rt = RoundTrace(name=name, started_at=clock, finished_at=clock + 1.0,
                        status=rstatus)
        clock += 1.0
        t.rounds.append(rt)
    return t


class TestProtocolTraceAudit:
    def test_clean_committed_trace(self):
        t = _trace("committed", [("a", "ok"), ("b", "skipped"), ("c", "ok")])
        assert t.audit() == []

    def test_committed_with_compensation_is_flagged(self):
        t = _trace("committed", [("a", "ok")], compensated=["a"])
        assert any("compensated" in p for p in t.audit())

    def test_aborted_without_reason_is_flagged(self):
        t = _trace("aborted", [("a", "ok")])
        assert any("without a reason" in p for p in t.audit())

    def test_reverse_order_compensation_is_clean(self):
        t = _trace("aborted", [("a", "ok"), ("b", "ok"), ("c", "ok")],
                   compensated=["b", "a"], abort_reason="boom")
        assert t.audit() == []

    def test_forward_order_compensation_is_flagged(self):
        t = _trace("aborted", [("a", "ok"), ("b", "ok")],
                   compensated=["a", "b"], abort_reason="boom")
        assert any("compensation order" in p for p in t.audit())

    def test_compensating_a_skipped_round_is_flagged(self):
        t = _trace("aborted", [("a", "ok"), ("b", "skipped")],
                   compensated=["b"], abort_reason="boom")
        assert any("compensation order" in p for p in t.audit())

    def test_out_of_order_rounds_are_flagged(self):
        t = _trace("committed", [("a", "ok"), ("b", "ok")])
        t.rounds[1].started_at = 0.2  # overlaps round a
        assert any("before its predecessor" in p for p in t.audit())

    def test_negative_duration_round_is_flagged(self):
        t = _trace("committed", [("a", "ok")])
        t.rounds[0].finished_at = t.rounds[0].started_at - 1.0
        assert any("finished before it started" in p for p in t.audit())


# -- D2T presumed-abort oracle -----------------------------------------------------


def _outcome(**kw):
    base = dict(txn_id=1, committed=True, started_at=0.0, decided_at=1.0,
                finished_at=2.0, timed_out_groups=[], acks_complete=True,
                votes=[True, True])
    base.update(kw)
    return TxnOutcome(**base)


class TestD2TPresumedAbortAudit:
    def test_unanimous_commit_is_clean(self):
        assert D2TPresumedAbort.audit_outcomes([_outcome()]) == []

    def test_commit_without_votes_is_flagged(self):
        problems = D2TPresumedAbort.audit_outcomes([_outcome(votes=[])])
        assert any("no votes" in p for p in problems)

    def test_commit_over_a_no_vote_is_flagged(self):
        problems = D2TPresumedAbort.audit_outcomes(
            [_outcome(votes=[True, False])]
        )
        assert any("no vote" in p for p in problems)

    def test_commit_with_timed_out_group_is_flagged(self):
        problems = D2TPresumedAbort.audit_outcomes(
            [_outcome(timed_out_groups=["w"])]
        )
        assert any("presumed abort" in p for p in problems)

    def test_abort_is_always_safe(self):
        out = _outcome(committed=False, votes=[False], timed_out_groups=["w"])
        assert D2TPresumedAbort.audit_outcomes([out]) == []

    def test_live_coordinator_outcomes_are_audited(self):
        """An end-to-end committed transaction now records its vote trail."""
        from repro.simkernel import Environment
        from repro.cluster import Machine
        from repro.evpath import Messenger
        from repro.transactions import TransactionManager

        env = Environment()
        machine = Machine(env, num_nodes=9)
        messenger = Messenger(env, machine.network)
        tm = TransactionManager(env, messenger, machine.nodes[-1])
        wg = tm.build_group("w", machine.nodes[:4], fanout=4)
        rg = tm.build_group("r", machine.nodes[4:8], fanout=4)
        tm.run([wg, rg])
        env.run(until=60)
        (outcome,) = tm.coordinator.outcomes
        assert outcome.committed and outcome.votes == [True, True]
        assert D2TPresumedAbort.audit_outcomes(tm.coordinator.outcomes) == []


# -- invariant registry & monitor --------------------------------------------------


class TestRegistry:
    def test_catalogue_is_complete(self):
        assert set(INVARIANTS) >= {
            "node_conservation",
            "exactly_one_fate",
            "controlplane_well_formed",
            "d2t_presumed_abort",
            "monotone_perf",
        }

    def test_unknown_invariant_name_rejected(self):
        scenario = DSTScenario(name="x", plan=None, invariants=["nope"])
        pipe = scenario.build(seed=None)
        with pytest.raises(ValueError, match="unknown invariants"):
            InvariantMonitor(pipe, ["nope"])


# -- green path --------------------------------------------------------------------


class TestGreenRuns:
    def test_default_schedule_is_clean(self):
        report = DSTScenario(name="smoke").run(seed=None)
        assert report.finished and report.ok

    @pytest.mark.parametrize("seed", [0, 7])
    def test_shuffled_schedules_are_clean(self, seed):
        report = DSTScenario(name="smoke").run(seed)
        assert report.finished, f"seed {seed} did not finish"
        assert report.ok, [v.detail for v in report.violations]
        assert report.plan_signature is not None
        assert f"--seed {seed}" in report.repro

    @pytest.mark.slow
    def test_seed_sweep_is_clean(self):
        exploration = explore(DSTScenario(name="smoke"), range(12))
        assert exploration.ok, exploration.failure.as_dict()
        assert exploration.seeds_run == list(range(12))


class TestLinksScenario:
    """The ``links`` recipe puts the messenger's retry ladder under DST."""

    def test_plan_is_link_faults_on_replica_nodes(self):
        from repro.dst import PRESETS, links_plan
        from repro.dst.scenario import _replica_victims, plan_for
        from repro.faults.plan import FaultKind
        from repro.simkernel import Environment

        assert plan_for("links") is links_plan
        pipe = PRESETS["links"](Environment())
        plan = links_plan(3, pipe)
        assert sorted(ev.kind.value for ev in plan.events) == sorted(
            k.value for k in (FaultKind.LINK_PARTITION, FaultKind.MESSAGE_DROP,
                              FaultKind.LINK_DEGRADE))
        victims = set(_replica_victims(pipe))
        assert all(set(ev.targets) <= victims for ev in plan.events)
        assert plan.signature() == links_plan(3, PRESETS["links"](Environment())).signature()

    @pytest.mark.parametrize("seed", [0, 2])
    def test_green_run_reaches_the_retry_ladder(self, seed):
        from repro.dst.scenario import plan_for

        pipes = []
        scenario = DSTScenario(name="links", preset="links", plan=plan_for("links"),
                               hook=pipes.append)
        report = scenario.run(seed)
        assert report.finished and report.ok, [v.detail for v in report.violations]
        assert "--scenario links" in report.repro
        pipe = pipes[0]
        faults = pipe.machine.network.faults
        assert faults.partitioned > 0 and faults.dropped > 0
        assert pipe.messenger.retries > 0
        assert pipe.env.swallowed_faults > 0  # a fire-and-forget send ran out


# -- the acceptance case: plant a bug, catch it, shrink it -------------------------


def _leak_on_crash(pipe):
    """Test-only bug: crash handling leaks one healthy node from the pool."""
    sched = pipe.scheduler
    original = sched.mark_failed

    def leaky(node):
        original(node)
        if sched._free:
            sched._free.pop()

    sched.mark_failed = leaky


def _crash_plus_noise(seed, pipe):
    """One essential crash buried in irrelevant slowdown events."""
    plan = FaultPlan(seed=seed)
    victim = pipe.containers["bonds"].replicas[1].node.node_id
    bystander = pipe.containers["csym"].replicas[0].node.node_id
    plan.node_crash(40.0, victim)
    plan.node_slowdown(20.0, bystander, factor=2.0, duration=10.0)
    plan.node_slowdown(70.0, bystander, factor=1.6, duration=8.0)
    return plan


class TestPlantedBugIsCaughtAndShrunk:
    def test_explorer_reports_seed_and_violation(self):
        scenario = DSTScenario(name="leaky", plan=_crash_plus_noise,
                               hook=_leak_on_crash)
        exploration = explore(scenario, range(3))
        assert not exploration.ok
        failure = exploration.failure
        assert failure.seed == 0  # first seed already triggers the leak
        assert any(v.invariant == "node_conservation" for v in failure.violations)
        assert any("unaccounted" in v.detail for v in failure.violations)
        assert failure.event_log, "repro report must carry the event log"
        assert f"--seed {failure.seed}" in failure.repro

    def test_shrinker_reduces_to_the_essential_crash(self):
        scenario = DSTScenario(name="leaky", plan=_crash_plus_noise,
                               hook=_leak_on_crash)
        pipe = scenario.build(seed=0)
        plan = scenario.resolve_plan(0, pipe)
        assert len(plan.events) == 3
        result = shrink(scenario, 0, plan)
        assert result.removed == 2
        (event,) = result.plan.events
        assert event.kind.value == "node_crash"
        # and the minimal plan still violates, certifying the repro
        assert not scenario.run(0, plan_override=result.plan).ok

    def test_fix_restores_green(self):
        """Same plan, no planted bug: all invariants hold again."""
        report = DSTScenario(name="fixed", plan=_crash_plus_noise).run(0)
        assert report.ok and report.finished


# -- a planted second fate is refused where it is written ---------------------------


def _second_shed_decision(answers):
    """Test-only bug: every accepted shed decision is followed by a
    second, distinct one for the same timestep (a stride skip on top of a
    prune, or a prune on top of a stride skip)."""

    def hook(pipe):
        fates = pipe.fates
        original = fates.shed

        def double(step, stage, reason, time, chunk_id=None):
            answer = original(step, stage, reason, time, chunk_id)
            if answer == SHED:
                other = ("container_stride" if reason == "offline_prune"
                         else "offline_prune")
                answers.append(original(step, stage, other, time, chunk_id))
            return answer

        fates.shed = double

    return hook


class TestPlantedSecondShedDecision:
    def test_ledger_refuses_and_explorer_reports(self):
        from repro.dst.scenario import plan_for

        answers = []
        scenario = DSTScenario(name="double-shed", preset="overload",
                               plan=plan_for("overload"),
                               hook=_second_shed_decision(answers))
        exploration = explore(scenario, range(3))
        assert answers and set(answers) == {REFUSED}
        assert not exploration.ok
        failure = exploration.failure
        assert failure.seed == 0
        assert any(v.invariant == "exactly_one_fate" and "shed by" in v.detail
                   for v in failure.violations), failure.violations
        assert f"--seed {failure.seed}" in failure.repro
        assert "--scenario overload" in failure.repro


# -- the predictive oracle ---------------------------------------------------------


def _predictive_scenario(name="predictive"):
    from repro.dst.scenario import plan_for

    return DSTScenario(name=name, preset="predictive",
                       plan=plan_for("predictive"))


class TestPredictiveActionsBounded:
    def test_green_predictive_run(self):
        report = _predictive_scenario().run(0)
        assert report.finished, [v.detail for v in report.violations]
        assert report.ok, [v.detail for v in report.violations]
        assert "--scenario predictive" in report.repro

    def test_reactive_pipeline_is_a_noop(self):
        pipe = DSTScenario(name="overload", preset="overload").build(None)
        assert pipe.analytics is None
        checker = INVARIANTS["predictive_actions_bounded"]()
        assert checker.check(pipe, final=False) == []

    def test_unevidenced_proactive_transition_flagged(self):
        pipe = _predictive_scenario().build(None)
        checker = INVARIANTS["predictive_actions_bounded"]()
        # a proactive rung with no forecaster signal in the store
        pipe.degradation.record(5.0, "brownout", "increase", 1, proactive=True)
        problems = checker.check(pipe, final=False)
        assert any("no preceding forecaster signal" in p for p in problems)

    def test_signal_before_action_is_clean(self):
        pipe = _predictive_scenario().build(None)
        checker = INVARIANTS["predictive_actions_bounded"]()
        pipe.analytics.signal("sla_risk", 1.3, subject="bonds")
        pipe.degradation.record(5.0, "brownout", "increase", 1, proactive=True)
        assert checker.check(pipe, final=False) == []

    def test_proactive_shedding_rung_flagged(self):
        """A forecast alone must never build a shedding rung — stride and
        offline wait for an observed violation."""
        pipe = _predictive_scenario().build(None)
        checker = INVARIANTS["predictive_actions_bounded"]()
        pipe.analytics.signal("sla_risk", 1.3, subject="bonds")
        pipe.degradation.record(5.0, "brownout", "stride", 1, proactive=True)
        problems = checker.check(pipe, final=False)
        assert any("outside proactive_kinds" in p for p in problems)

    def test_skipped_rung_caught_end_to_end(self):
        """Planted bug: transitions recorded two levels at a time — the
        sweep must catch the skipped rung."""

        def double_levels(pipe):
            trace = pipe.degradation
            original = trace.record

            def doubled(time, kind, action, level, **detail):
                original(time, kind, action, level * 2, **detail)

            trace.record = doubled

        scenario = _predictive_scenario(name="skippy")
        scenario.hook = double_levels
        report = scenario.run(0)
        assert not report.ok
        assert any(
            v.invariant == "predictive_actions_bounded"
            and "skipped rungs" in v.detail
            for v in report.violations
        )
