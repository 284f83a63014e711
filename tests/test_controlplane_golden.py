"""Golden-trace regression tests for the control protocols.

``tests/data/golden_traces.json`` holds the exact round sequences, message
counts, and cost-breakdown categories of each control protocol as recorded
from the pre-control-plane (hand-written handler) implementation.  These
tests re-run the same deterministic scenarios and assert the protocols still
produce them round-for-round, so the declarative engine port cannot silently
change the Figure 3-6 protocol shapes.
"""

import json
from pathlib import Path

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build as build_spec

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_traces.json").read_text()
)


def build(env, steps=4, spare=3, **kwargs):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=13 + spare, spare=spare,
                      output_interval=15.0, steps=steps)
    kwargs.setdefault("control_interval", 10_000)
    return build_spec(env, PipelineSpec("golden", workload=wl,
                                        builder=dict(seed=0, **kwargs)))


def assert_matches_golden(trace, golden):
    """Round-for-round identity with the pre-refactor trace."""
    assert trace.protocol == golden["operation"]
    assert trace.subject == golden["container"]
    assert trace.amount == golden["amount"]
    assert trace.labels == golden["rounds"]
    assert trace.message_counts == golden["messages"]
    assert sorted(trace.breakdown) == golden["breakdown_keys"]
    # Simulated protocol time: identical costs are charged, so the total
    # must match closely (small tolerance for event-ordering jitter).
    assert trace.total == pytest.approx(golden["total"], rel=0.25)


class TestContainerProtocolGoldens:
    @pytest.mark.parametrize("count,key", [(1, "increase_1"), (2, "increase_2")])
    def test_increase(self, count, key):
        env = Environment()
        pipe = build(env, steps=4, spare=3)

        def do(env):
            yield env.timeout(1)
            yield pipe.global_manager.increase("bonds", count)

        env.process(do(env))
        pipe.run(settle=60)
        assert_matches_golden(pipe.control_trace.of("increase")[0], GOLDEN[key])

    def test_decrease(self):
        env = Environment()
        pipe = build(env, steps=8, spare=0)

        def do(env):
            yield env.timeout(40)
            yield pipe.global_manager.decrease("bonds", 2)

        env.process(do(env))
        pipe.run(settle=120)
        assert_matches_golden(pipe.control_trace.of("decrease")[0], GOLDEN["decrease_2"])

    def test_offline(self):
        env = Environment()
        pipe = build(env, steps=6, spare=0)

        def do(env):
            yield env.timeout(30)
            yield pipe.global_manager.take_offline("csym")

        env.process(do(env))
        pipe.run(settle=120)
        assert_matches_golden(pipe.control_trace.of("offline")[0], GOLDEN["offline_csym"])

    def test_replace(self):
        pipe = _run_replace_scenario()
        assert_matches_golden(pipe.control_trace.of("replace")[0], GOLDEN["replace_bonds"])


def _run_replace_scenario():
    """The deterministic crash-recovery run behind the REPLACE goldens."""
    from repro.faults import FaultPlan

    env = Environment()
    pipe = build(env, steps=10, spare=2, fault_tolerance=True)
    victim = pipe.containers["bonds"].replicas[1]
    plan = FaultPlan(seed=1)
    plan.node_crash(30.0, victim.node.node_id)
    pipe.arm_faults(plan)
    pipe.run(settle=200)
    return pipe


def _engine_ladder(pipe):
    """Engine-level trace summary of every protocol the run executed."""
    return [
        {
            "protocol": t.protocol,
            "subject": t.subject,
            "status": t.status,
            "abort_reason": t.abort_reason,
            "compensated": list(t.compensated),
            "rounds": [[r.name, r.status, r.messages] for r in t.rounds],
            "total": t.total,
        }
        for t in pipe.control_trace.records
    ]


class TestRecoveryLadderGolden:
    """The full REPLACE recovery ladder — GM_REPLACE driving REPLACE — as
    seen by the control-plane engine, pinned round-for-round."""

    def test_ladder_matches_golden(self):
        pipe = _run_replace_scenario()
        ladder = _engine_ladder(pipe)
        golden = GOLDEN["replace_ladder_engine"]
        assert len(ladder) == len(golden)
        for got, want in zip(ladder, golden):
            assert got["protocol"] == want["protocol"]
            assert got["subject"] == want["subject"]
            assert got["status"] == want["status"]
            assert got["abort_reason"] == want["abort_reason"]
            assert got["compensated"] == want["compensated"]
            assert got["rounds"] == want["rounds"]
            assert got["total"] == pytest.approx(want["total"], rel=0.25)

    def test_identical_across_three_default_runs(self):
        """The default tie-breaker is deterministic: three fresh runs of the
        recovery scenario must produce byte-identical ladders and delivery
        records — the anchor the seeded-shuffle exploration deviates from."""
        ladders, exits = [], []
        for _ in range(3):
            pipe = _run_replace_scenario()
            ladders.append(_engine_ladder(pipe))
            exits.append(list(pipe.end_to_end))
        assert ladders[0] == ladders[1] == ladders[2]
        assert exits[0] == exits[1] == exits[2]


def _run_brownout_scenario():
    """The deterministic overload run behind the brownout-ladder goldens:
    a seeded burst saturates the stages, the ladder escalates through
    steal/stride/offline and unwinds every rung with hysteresis."""
    from repro.overload.scenario import build_overload_pipeline, overload_burst_plan

    env = Environment()
    pipe = build_overload_pipeline(env, steps=12, seed=3)
    pipe.arm_faults(overload_burst_plan(3, pipe))
    pipe.run(settle=600)
    return pipe


def _brownout_ladder(pipe):
    return [t for t in _engine_ladder(pipe)
            if t["protocol"] in ("brownout_escalate", "brownout_recover")]


class TestBrownoutLadderGolden:
    """The brownout escalate/de-escalate protocol ladders, pinned
    round-for-round like the REPLACE recovery ladder above."""

    def test_ladder_matches_golden(self):
        pipe = _run_brownout_scenario()
        ladder = _brownout_ladder(pipe)
        golden = GOLDEN["brownout_ladder_engine"]
        assert len(ladder) == len(golden)
        for got, want in zip(ladder, golden):
            assert got["protocol"] == want["protocol"]
            assert got["subject"] == want["subject"]
            assert got["status"] == want["status"]
            assert got["abort_reason"] == want["abort_reason"]
            assert got["compensated"] == want["compensated"]
            assert got["rounds"] == want["rounds"]
            assert got["total"] == pytest.approx(want["total"], rel=0.25)
        # both paths are exercised: escalations and their unwinds
        protocols = [t["protocol"] for t in ladder]
        assert "brownout_escalate" in protocols
        assert "brownout_recover" in protocols

    def test_identical_across_three_runs(self):
        ladders, degradations = [], []
        for _ in range(3):
            pipe = _run_brownout_scenario()
            ladders.append(_brownout_ladder(pipe))
            degradations.append(pipe.degradation.as_dicts())
        assert ladders[0] == ladders[1] == ladders[2]
        assert degradations[0] == degradations[1] == degradations[2]


def _run_predictive_brownout_scenario():
    """The same seeded overload run as :func:`_run_brownout_scenario`, but
    built from the ``predictive`` preset: the forecaster stack drives the
    proactive ladder, premature-recovery backoff and shed-guided unwind,
    so the protocol sequence differs from the reactive golden — and is
    pinned separately here."""
    from repro.containers.presets import build_predictive_pipeline
    from repro.overload.scenario import overload_burst_plan

    env = Environment()
    pipe = build_predictive_pipeline(env, steps=12, seed=3)
    pipe.arm_faults(overload_burst_plan(3, pipe))
    pipe.run(settle=600)
    return pipe


class TestPredictiveBrownoutLadderGolden:
    """The proactive (``mode: predictive``) escalate/de-escalate ladders,
    pinned round-for-round against their own golden."""

    def test_ladder_matches_golden(self):
        pipe = _run_predictive_brownout_scenario()
        ladder = _brownout_ladder(pipe)
        golden = GOLDEN["brownout_ladder_engine_predictive"]
        assert len(ladder) == len(golden)
        for got, want in zip(ladder, golden):
            assert got["protocol"] == want["protocol"]
            assert got["subject"] == want["subject"]
            assert got["status"] == want["status"]
            assert got["abort_reason"] == want["abort_reason"]
            assert got["compensated"] == want["compensated"]
            assert got["rounds"] == want["rounds"]
            assert got["total"] == pytest.approx(want["total"], rel=0.25)
        protocols = [t["protocol"] for t in ladder]
        assert "brownout_escalate" in protocols
        assert "brownout_recover" in protocols

    def test_identical_across_three_runs(self):
        ladders, degradations, analytics = [], [], []
        for _ in range(3):
            pipe = _run_predictive_brownout_scenario()
            ladders.append(_brownout_ladder(pipe))
            degradations.append(pipe.degradation.as_dicts())
            analytics.append(pipe.analytics.as_dict())
        assert ladders[0] == ladders[1] == ladders[2]
        assert degradations[0] == degradations[1] == degradations[2]
        assert analytics[0] == analytics[1] == analytics[2]

    def test_predictive_ladder_diverges_from_reactive(self):
        """The two goldens must not silently collapse into one another —
        if they ever match, the predictive path stopped doing anything."""
        assert (GOLDEN["brownout_ladder_engine_predictive"]
                != GOLDEN["brownout_ladder_engine"])


class TestD2TGolden:
    def test_commit_message_count_and_phases(self):
        """One committed 16:4 transaction: same wire messages, same phases."""
        from repro.cluster import Machine
        from repro.evpath import Messenger
        from repro.transactions import TransactionManager

        golden = GOLDEN["d2t_16_4"]
        env = Environment()
        machine = Machine(env, num_nodes=21)
        messenger = Messenger(env, machine.network)
        tm = TransactionManager(env, messenger, machine.nodes[-1])
        wg = tm.build_group("w", machine.nodes[:16], fanout=4)
        rg = tm.build_group("r", machine.nodes[16:20], fanout=4)
        out = {}

        def proc(env):
            o = yield tm.run([wg, rg])
            out["o"] = o

        env.process(proc(env))
        env.run(until=60)
        o = out["o"]
        assert o.committed == golden["committed"]
        assert o.acks_complete == golden["acks_complete"]
        assert messenger.messages_sent == golden["messages_sent"]
        assert o.vote_phase == pytest.approx(golden["vote_phase"], rel=0.25)
        assert o.total == pytest.approx(golden["total"], rel=0.25)
