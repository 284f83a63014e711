"""Tests for D2T transactions: commit, abort, crashes, scalability, trades."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, shuffle
from repro.cluster import Machine, redsky
from repro.evpath import Messenger
from repro.faults import NetworkFaultState
from repro.faults.plan import FaultPlan
from repro.transactions import (
    FailureInjector, TransactionManager, TxnGroup, TxnParticipant, d2t,
)
from repro.dst.invariants import D2TPresumedAbort


def rig(env, n_nodes=24, injector=None, **kwargs):
    machine = Machine(env, num_nodes=n_nodes)
    messenger = Messenger(env, machine.network)
    tm = TransactionManager(env, messenger, machine.nodes[-1], injector=injector, **kwargs)
    return machine, messenger, tm


def run_one(env, tm, groups):
    results = []

    def proc(env):
        out = yield tm.run(groups)
        results.append(out)

    env.process(proc(env))
    env.run(until=env.now + 60)
    return results[0]


class TestGroupTree:
    def test_tree_structure(self, env):
        machine, messenger, tm = rig(env)
        group = tm.build_group("g", machine.nodes[:9], fanout=2)
        assert group.root.name == "g-p0"
        assert len(group.root.children) == 2
        total = sum(1 + len(p.children) for p in group.participants)  # sanity
        assert len(group.participants) == 9

    def test_depth_logarithmic(self, env):
        machine, messenger, tm = rig(env)
        small = tm.build_group("s", machine.nodes[:4], fanout=4)
        big = tm.build_group("b", machine.nodes[4:20], fanout=2)
        assert small.depth() <= 1
        assert big.depth() >= 3

    def test_empty_group_rejected(self):
        from repro.simkernel.errors import SimulationError

        with pytest.raises(SimulationError):
            TxnGroup("empty", [])

    def test_fanout_validation(self, env):
        machine, messenger, tm = rig(env)
        participants = [
            TxnParticipant(env, messenger, machine.nodes[0], "solo-p0")
        ]
        with pytest.raises(ValueError):
            TxnGroup("g", participants, fanout=1)


class TestCommitPath:
    def test_all_vote_commit(self, env):
        machine, messenger, tm = rig(env)
        wg = tm.build_group("w", machine.nodes[:8])
        rg = tm.build_group("r", machine.nodes[8:12])
        out = run_one(env, tm, [wg, rg])
        assert out.committed
        assert out.acks_complete
        for group in (wg, rg):
            assert all(p.committed == [out.txn_id] for p in group.participants)

    def test_vote_fn_can_abort(self, env):
        machine, messenger, tm = rig(env)
        group = tm.build_group("g", machine.nodes[:4], vote_fn=lambda txn: False)
        out = run_one(env, tm, [group])
        assert not out.committed
        assert all(p.aborted for p in group.participants)

    def test_single_abort_vote_aborts_all(self, env):
        injector = FailureInjector()
        machine, messenger, tm = rig(env, injector=injector)
        group = tm.build_group("g", machine.nodes[:8], fanout=2)
        # A coordinator numbers its transactions from 1.
        injector.inject("g-p5", 1, "abort")
        out = run_one(env, tm, [group])
        assert out.txn_id == 1
        assert not out.committed
        assert ("g-p5", out.txn_id) in injector.triggered
        # Every reachable participant learned the abort decision.
        assert all(p.aborted == [out.txn_id] for p in group.participants)


class TestFailures:
    def _with_fault(self, env, victim, behaviour, vote_timeout=2.0):
        injector = FailureInjector()
        machine, messenger, tm = rig(env, injector=injector, vote_timeout=vote_timeout)
        group = tm.build_group("g", machine.nodes[:4], fanout=2)
        injector.inject(victim, 1, behaviour)  # the coordinator's first txn
        return tm, group

    def test_root_crash_presumed_abort(self, env):
        tm, group = self._with_fault(env, "g-p0", "crash")
        out = run_one(env, tm, [group])
        assert not out.committed
        assert out.timed_out_groups == ["g"]
        assert out.vote_phase >= 2.0  # waited for the timeout

    def test_leaf_crash_presumed_abort(self, env):
        tm, group = self._with_fault(env, "g-p3", "crash")
        out = run_one(env, tm, [group])
        assert not out.committed

    def test_crash_after_vote_still_decides(self, env):
        tm, group = self._with_fault(env, "g-p1", "crash_after_vote", vote_timeout=5.0)
        out = run_one(env, tm, [group])
        assert out.committed  # votes were all yes
        assert not out.acks_complete  # but the subtree never acked

    def test_injector_validation(self):
        with pytest.raises(ValueError):
            FailureInjector().inject("x", 1, "explode")


class TestOpenGatherDoesNotWedge:
    """A child that never answers leaves its ancestors' gathers for that
    transaction open forever; the next transactions must still commit.
    (The process-per-message participant served one message at a time, so
    ``w-p0`` waited on transaction 1 for good and every later transaction
    aborted with ``timed_out_groups == ['w']``.)"""

    @pytest.mark.parametrize("behaviour", ["crash", "crash_after_vote"])
    def test_later_transactions_commit(self, behaviour):
        env = Environment()
        machine = redsky(env, num_nodes=40)
        injector = FailureInjector()
        tm = TransactionManager(env, Messenger(env, machine.network), machine.nodes[-1],
                                injector=injector)
        w = tm.build_group("w", machine.nodes[:20], fanout=4)
        r = tm.build_group("r", machine.nodes[20:24], fanout=4)
        injector.inject("w-p3", 1, behaviour)
        outcomes = []

        def proc(env):
            for _ in range(3):
                outcomes.append((yield tm.run([w, r])))

        env.process(proc(env))
        env.run(until=60)
        first, *later = outcomes
        assert len(outcomes) == 3
        if behaviour == "crash":
            assert not first.committed and first.timed_out_groups == ["w"]
        else:
            assert first.committed and not first.acks_complete
        assert [(o.txn_id, o.committed, o.acks_complete) for o in later] == [
            (2, True, True), (3, True, True)]
        assert all(p.committed[-2:] == [2, 3] for p in w.participants + r.participants)

    def test_request_buffered_before_the_gather_opens(self):
        """Transaction 2's request reaches ``w-p0`` while it still relays
        transaction 1 (its send to ``w-p2`` waits out a partition past the
        30 ms vote deadline), so it is buffered; the gather that then stays
        open (``w-p1`` crashed in transaction 1) must hand it on."""
        env = Environment()
        machine = Machine(env, num_nodes=24)
        plan = FaultPlan(seed=0)
        plan.link_partition(0.0, (machine.nodes[2].node_id,), duration=0.04)
        machine.network.faults = NetworkFaultState(env, plan)
        injector = FailureInjector()
        tm = TransactionManager(env, Messenger(env, machine.network), machine.nodes[-1],
                                injector=injector, vote_timeout=0.03, ack_timeout=0.03)
        w = tm.build_group("w", machine.nodes[:5], fanout=4)
        r = tm.build_group("r", machine.nodes[5:7], fanout=4)
        injector.inject("w-p1", 1, "crash")
        outcomes = []

        def proc(env):
            for _ in range(2):
                outcomes.append((yield tm.run([w, r])))

        env.process(proc(env))
        env.run(until=60)
        first, second = outcomes
        assert not first.committed and first.timed_out_groups == ["w"]
        # the relay to w-p2 got through on its first retry, after the
        # second transaction started
        assert tm.messenger.retries == 1 and second.started_at < 0.05
        assert second.committed and second.acks_complete


@st.composite
def d2t_mix(draw, confined):
    """A seeded D2T mix: groups w and r of drawn sizes and fanouts, one to
    three transactions a drawn gap apart, ``abort``/``crash``/
    ``crash_after_vote`` faults at drawn members and transactions, and one
    partition window over one member's node or the coordinator's, opening
    a drawn instant after a drawn transaction starts.

    ``confined`` keeps every transaction but the last free of gathers left
    open below a root: a ``crash`` or ``crash_after_vote`` below a root, and
    the partition (which can kill a member mid-round), go to the last
    transaction.  An open gather with a later transaction arriving is an
    intended departure of the walker from the oracle
    (:class:`TestOpenGatherDoesNotWedge`)."""
    sizes = (draw(st.integers(1, 14)), draw(st.integers(1, 6)))
    fanouts = (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    txns = draw(st.integers(1, 3))
    members = [f"{g}-p{i}" for g, n in zip("wr", sizes) for i in range(n)]
    faults = {}
    for _ in range(draw(st.integers(0, 3))):
        member = draw(st.sampled_from(members))
        behaviour = draw(st.sampled_from(["abort", "crash", "crash_after_vote"]))
        txn = draw(st.integers(1, txns))
        if confined and behaviour != "abort" and not member.endswith("-p0"):
            txn = txns
        faults[member, txn] = behaviour
    partition = (
        draw(st.sampled_from([*range(sum(sizes)), -1])),  # a member's node, or -1
        txns if confined else draw(st.integers(1, txns)),
        draw(st.floats(0.0, 1e-3)),
        draw(st.floats(0.01, 1.5)),
    )
    return dict(sizes=sizes, fanouts=fanouts, txns=txns,
                gap=draw(st.sampled_from([0.0, 0.5, 2.0])),
                faults=faults, partition=partition)


class TestWalkerIdentity:
    """The participant walker must reach the outcomes of the
    process-per-message participant of :mod:`tests.oracles.transactions`:
    same transaction outcomes, decisions applied, deliveries, sends,
    retries, swallowed faults, raised errors and final clock.  It is not
    schedule-identical: it schedules only its sends and its vote
    ``Timeout``, so it processes about half the events.

    Every scenario keeps at most one transaction in flight at a participant.
    With two (a gather left open by a silent child while the next
    transaction arrives, :class:`TestOpenGatherDoesNotWedge`), the walker
    serves the second transaction and the oracle does not, so that case is
    not part of this differential.  Nor is a request delivered before
    ``stop()`` in the same instant: the walker serves it, the oracle loses
    it (``stop_on_arrival`` pins that difference)."""

    @staticmethod
    def _run(oracle, scenario, tie_seed=None):
        """Run ``scenario(env, machine, messenger)`` with the live
        participant or, with ``oracle``, the reference one; the scenario
        returns the manager, its groups and a dict of extra readings, each
        read after the run."""
        from tests.oracles import transactions as _reference

        env = Environment() if tie_seed is None else Environment(tie_breaker=shuffle(tie_seed))
        machine = Machine(env, num_nodes=24)
        patch = mock.patch.object(d2t, "TxnParticipant", _reference.TxnParticipant)
        if oracle:
            patch.start()
        try:
            messenger = Messenger(env, machine.network)
            tm, groups, extra = scenario(env, machine, messenger)
            raised = []
            while True:  # record what escapes the run, then carry on
                try:
                    env.run(until=60)
                    break
                except Exception as error:
                    raised.append((type(error).__name__, str(error)))
        finally:
            if oracle:
                patch.stop()
        members = [p for g in groups for p in g.participants]
        return dict(
            raised=raised, now=env.now, processed=env.events_processed,
            swallowed=env.swallowed_faults, sent=messenger.messages_sent,
            retries=messenger.retries,
            outcomes=[dataclasses.asdict(o) for o in tm.coordinator.outcomes],
            decisions=[(p.name, p.committed, p.aborted) for p in members],
            delivered=[(p.name, p.endpoint.delivered) for p in members],
            triggered=sorted(tm.injector.triggered) if tm.injector else None,
            **{key: value() for key, value in extra.items()},
        )

    @staticmethod
    def _rig(env, machine, messenger, faults=(), plan=None, w_vote=None, txns=1,
             gap=0.0, vote_timeout=1.0):
        """Groups w (16 at fanout 4) and r (4), ``txns`` sequential
        transactions ``gap`` seconds apart, and ``faults`` as
        (participant, txn_id, behaviour)."""
        injector = FailureInjector(plan) if faults or plan else None
        tm = TransactionManager(env, messenger, machine.nodes[-1], injector=injector,
                                vote_timeout=vote_timeout, ack_timeout=vote_timeout)
        w = tm.build_group("w", machine.nodes[:16], fanout=4, vote_fn=w_vote)
        r = tm.build_group("r", machine.nodes[16:20], fanout=4)
        for fault in faults:
            injector.inject(*fault)

        def proc(env):
            for i in range(txns):
                if i:
                    yield env.timeout(gap)
                yield tm.run([w, r])

        env.process(proc(env))
        return tm, [w, r]

    def _faults(self, *faults, **kwargs):
        def scenario(env, machine, messenger):
            tm, groups = self._rig(env, machine, messenger, faults, **kwargs)
            return tm, groups, {}
        return scenario

    def _stop_idle(self, env, machine, messenger):
        """Stopped between transactions: no member serves the second
        transaction's requests, so it times out on both groups."""
        tm, groups = self._rig(env, machine, messenger, txns=2, gap=1.0)

        def stopper(env):
            yield env.timeout(0.5)
            for group in groups:
                group.stop()

        env.process(stopper(env))
        return tm, groups, {}

    def _stop_on_arrival(self, env, machine, messenger):
        """Stopped inside the delivery of transaction 2's vote request to
        w's root.  The walker has served the request by then, so the root
        relays it to its four stopped children, which never serve it; the
        oracle's interrupt tombstones the receive that had
        not yet fired, so the request is lost at the root.  Both time out
        on both groups."""
        tm, groups = self._rig(env, machine, messenger, txns=2, gap=1.0)
        root = groups[0].root.endpoint
        deliver = root.deliver

        def deliver_then_stop(message):
            put = deliver(message)
            if message.payload["txn_id"] == 2:
                for group in groups:
                    group.stop()
            return put

        root.deliver = deliver_then_stop
        return tm, groups, {}

    def _stop_gathering(self, env, machine, messenger):
        """Stopped while the vote gathers are open: a member waiting on its
        round ends quietly; the open rounds still vote, so the transaction
        commits, but no stopped member serves the decision."""
        tm, groups = self._rig(env, machine, messenger)
        busy = []  # (member, its gather is open), read off the walker only

        def stopper(env):
            yield env.timeout(2e-4)
            busy.extend((p.name, p._busy.waiting) for g in groups for p in g.participants
                        if getattr(p, "_busy", None) is not None)
            for group in groups:
                group.stop()

        env.process(stopper(env))
        return tm, groups, {"busy": lambda: busy}

    def _partitioned(self, env, machine, messenger):
        """w-p1's node is cut off while w-p0 relays to it: the send spends
        its retries, w-p0 dies (one swallowed fault) and later requests
        queue at it unserved."""
        plan = FaultPlan(seed=5)
        plan.link_partition(0.0, (machine.nodes[1].node_id,), duration=3.0)
        machine.network.faults = NetworkFaultState(env, plan)
        tm, groups = self._rig(env, machine, messenger, plan=plan, txns=2)
        return tm, groups, {"partitioned": lambda: machine.network.faults.partitioned}

    SCENARIOS = {
        "commit": lambda self: self._faults(txns=3),
        "vote_fn_abort": lambda self: self._faults(w_vote=lambda txn: txn != 2, txns=3),
        "abort_vote": lambda self: self._faults(("w-p6", 1, "abort"), ("r-p0", 2, "abort"),
                                                txns=2),
        "root_crash": lambda self: self._faults(("w-p0", 1, "crash"), txns=2),
        "leaf_crash": lambda self: self._faults(("w-p13", 1, "crash")),
        "crash_after_vote": lambda self: self._faults(("w-p2", 1, "crash_after_vote")),
        "stop_idle": lambda self: self._stop_idle,
        "stop_on_arrival": lambda self: self._stop_on_arrival,
        "stop_gathering": lambda self: self._stop_gathering,
        "partitioned": lambda self: self._partitioned,
    }

    @pytest.mark.parametrize("tie_seed", [None, 7], ids=["insertion", "shuffle7"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_process_path(self, name, tie_seed):
        scenario = self.SCENARIOS[name](self)
        fast = self._run(False, scenario, tie_seed)
        slow = self._run(True, scenario, tie_seed)
        busy = fast.pop("busy", None)
        slow.pop("busy", None)
        # the walker takes no step: about half the oracle's events
        assert fast.pop("processed") < 0.6 * slow.pop("processed")
        if name == "stop_on_arrival":
            # w's root served transaction 2's request before the stop
            # landed: one relay more to each of its four children
            served = {f"w-p{i}" for i in range(1, 5)}
            assert fast["sent"] == slow["sent"] + len(served)
            assert fast["delivered"] == [(member, count + (member in served))
                                         for member, count in slow["delivered"]]
            slow["sent"], slow["delivered"] = fast["sent"], fast["delivered"]
        assert fast == slow
        # the scenario really reaches the branch it is meant to pin
        outcomes = [(o["committed"], o["timed_out_groups"], o["acks_complete"])
                    for o in fast["outcomes"]]
        expected = {
            "commit": [(True, [], True)] * 3,
            "vote_fn_abort": [(True, [], True), (False, [], True), (True, [], True)],
            "abort_vote": [(False, [], True)] * 2,
            "root_crash": [(False, ["w"], True), (True, [], True)],
            "leaf_crash": [(False, ["w"], True)],
            "crash_after_vote": [(True, [], False)],
            "stop_idle": [(True, [], True), (False, ["w", "r"], True)],
            "stop_on_arrival": [(True, [], True), (False, ["w", "r"], True)],
            "stop_gathering": [(True, [], False)],
            "partitioned": [(False, ["w"], True)] * 2,
        }[name]
        assert outcomes == expected
        if name == "stop_gathering":
            assert any(waiting for _, waiting in busy)
            assert not any(c for _, c, _ in fast["decisions"])
        assert fast["raised"] == []
        if name == "partitioned":
            assert fast["swallowed"] == 1 and fast["retries"] == 3
            assert fast["partitioned"] == 4

    @staticmethod
    def _mixed(mix):
        """The scenario of one :func:`d2t_mix` draw."""
        def scenario(env, machine, messenger):
            (nw, nr), (fw, fr) = mix["sizes"], mix["fanouts"]
            injector = FailureInjector()
            tm = TransactionManager(env, messenger, machine.nodes[-1], injector=injector,
                                    vote_timeout=1.0, ack_timeout=1.0)
            w = tm.build_group("w", machine.nodes[:nw], fanout=fw)
            r = tm.build_group("r", machine.nodes[nw:nw + nr], fanout=fr)
            for (member, txn), behaviour in mix["faults"].items():
                injector.inject(member, txn, behaviour)
            target, after, start, duration = mix["partition"]

            def proc(env):
                for txn in range(1, mix["txns"] + 1):
                    if txn > 1:
                        yield env.timeout(mix["gap"])
                    if txn == after:
                        plan = FaultPlan(seed=0)
                        plan.link_partition(env.now + start, (machine.nodes[target].node_id,),
                                            duration=duration)
                        machine.network.faults = NetworkFaultState(env, plan)
                    yield tm.run([w, r])

            env.process(proc(env))
            return tm, [w, r], {"partitioned": lambda: machine.network.faults.partitioned}
        return scenario

    @given(mix=d2t_mix(confined=True))
    @settings(max_examples=40, deadline=None)
    def test_seeded_mix_matches_process_path(self, mix):
        fast = self._run(False, self._mixed(mix))
        slow = self._run(True, self._mixed(mix))
        assert fast.pop("processed") < slow.pop("processed")
        # Two roots that send their votes in the same instant contend for
        # the coordinator's NIC, and same-instant order decides which takes
        # it first.  The walker serves a delivery in its callback, one
        # event before the process path resumes, so the two votes can land
        # in the other order (4 draws in 1,500).  The later one lands
        # at the same instant either way, so the decision and every time
        # stay equal.
        for run in (fast, slow):
            for outcome in run["outcomes"]:
                outcome["votes"].sort()
        assert fast == slow

    @given(mix=d2t_mix(confined=False), tie_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shuffled_seeded_mix_passes_presumed_abort_audit(self, mix, tie_seed):
        from repro.transactions.coordinator import TxnOutcome

        run = self._run(False, self._mixed(mix), tie_seed)
        # a send to a root that spends its retries fails the transaction
        # (and the driving process) with no outcome
        outcomes = [TxnOutcome(**o) for o in run["outcomes"]]
        assert len(outcomes) <= mix["txns"]
        assert D2TPresumedAbort.audit_outcomes(outcomes) == []
        assert run["raised"] == []


class TestParticipantSchedulesOnlyTimedEvents:
    """A participant schedules only events that carry time: its sends,
    whose ``result`` runs the round's send hooks (``_relay`` down the tree,
    ``_sent`` up it), and the vote ``Timeout`` that runs ``_vote``.  No
    step, no event per served request or gathered reply, and no mailbox
    put."""

    def test_one_commit(self):
        from repro.transactions.participants import _Mailbox, _Round

        env = Environment()
        scheduled, puts = [], []
        schedule, schedule_at, deliver = env.schedule, env.schedule_at, _Mailbox.deliver

        # Hold each scheduled event's callback list: the engine runs that
        # list, so after the run it names every callback the event ran.
        def spy(event, *args, **kwargs):
            scheduled.append((event, event.callbacks))
            return schedule(event, *args, **kwargs)

        def spy_at(event, *args, **kwargs):
            scheduled.append((event, event.callbacks))
            return schedule_at(event, *args, **kwargs)

        def noting_deliver(self, message):
            puts.append(deliver(self, message))
            return puts[-1]

        env.schedule, env.schedule_at = spy, spy_at
        machine, messenger, tm = rig(env)
        w = tm.build_group("w", machine.nodes[:16], fanout=4)
        r = tm.build_group("r", machine.nodes[16:20], fanout=4)
        members = w.participants + r.participants
        with mock.patch.object(_Mailbox, "deliver", noting_deliver):
            out = run_one(env, tm, [w, r])
        assert out.committed and out.acks_complete
        assert len(scheduled) == env.events_processed + env.tombstones_skipped
        hooks = []
        for event, callbacks in scheduled:
            first = getattr(callbacks[0], "__self__", None) if callbacks else None
            if isinstance(first, (TxnParticipant, _Round)):
                hooks.append((type(event).__name__, callbacks[0].__name__))
        edges = len(members) - 2  # each group's tree has one edge fewer than members
        assert sorted(set(hooks)) == [("Event", "_relay"), ("Event", "_sent"),
                                      ("Timeout", "_vote")]
        # one relay per tree edge per phase, one reply per member per phase,
        # one vote Timeout per member
        assert hooks.count(("Event", "_relay")) == 2 * edges
        assert hooks.count(("Event", "_sent")) == 2 * len(members)
        assert hooks.count(("Timeout", "_vote")) == len(members)
        # every participant delivery (two phases, a request and a reply per
        # tree edge, plus the coordinator's request to each root) scheduled
        # no put
        assert len(puts) == 2 * (2 * edges + 2)
        assert not any(put is event for put in puts for event, _ in scheduled)


class TestRunScopedState:
    """Nothing a transaction manager records outlives it."""

    def test_each_manager_numbers_transactions_from_one(self):
        for _ in range(2):
            env = Environment()
            machine, messenger, tm = rig(env)
            out = run_one(env, tm, [tm.build_group("g", machine.nodes[:4])])
            assert out.committed
            assert out.txn_id == 1

    def test_new_manager_starts_with_an_empty_trace(self):
        from repro.experiments import figures

        figures.run_fig6(ratios=((64, 2),), repeats=2)
        env = Environment()
        machine, messenger, tm = rig(env)
        assert tm.engine.trace.records == []
        run_one(env, tm, [tm.build_group("g", machine.nodes[:4])])
        assert [t.subject for t in tm.engine.trace.records] == ["txn-1"]


class TestScalability:
    def test_fig6_shape_sublinear_in_writers(self, env):
        """Figure 6: transaction time grows slowly with the writer count."""
        machine, messenger, tm = rig(env, n_nodes=300)
        times = {}
        for count in (16, 64, 256):
            group = tm.build_group(f"w{count}", machine.nodes[:count])
            out = run_one(env, tm, [group])
            assert out.committed
            times[count] = out.total
        # 16x more writers must cost far less than 16x the time.
        assert times[256] < times[16] * 8

    def test_reader_group_barely_matters(self, env):
        machine, messenger, tm = rig(env, n_nodes=300)
        w = tm.build_group("w", machine.nodes[:128])
        r_small = tm.build_group("r2", machine.nodes[128:130])
        out_small = run_one(env, tm, [w, r_small])
        env2 = Environment()
        machine2, messenger2, tm2 = rig(env2, n_nodes=300)
        w2 = tm2.build_group("w", machine2.nodes[:128])
        r_big = tm2.build_group("r8", machine2.nodes[128:136])
        out_big = run_one(env2, tm2, [w2, r_big])
        assert out_big.total < out_small.total * 2


class TestTradeTransaction:
    """Node-conservation guarantee for manager-level resource trades."""

    def _pipeline(self, env):
        from repro.spec import PipelineSpec, WorkloadSpec, build

        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=6)
        pipe = build(env, PipelineSpec("trade", workload=wl, builder=dict(
            seed=0, control_interval=10_000)))
        tm = TransactionManager(env, pipe.messenger, pipe.machine.nodes[0])
        return pipe, tm

    def _total_nodes(self, pipe):
        held = sum(c.units for c in pipe.containers.values())
        held += sum(len(c.standby_nodes) for c in pipe.containers.values())
        return held + pipe.scheduler.free_nodes

    def test_committed_trade_moves_nodes(self, env):
        pipe, tm = self._pipeline(env)
        before = self._total_nodes(pipe)

        def proc(env):
            yield env.timeout(1)
            yield tm.run_trade(pipe.global_manager, "helper", "bonds", 1)

        env.process(proc(env))
        env.run(until=50)
        assert tm.trades_committed == 1
        assert pipe.containers["helper"].units == 3
        assert pipe.containers["bonds"].units == 5
        assert self._total_nodes(pipe) == before

    def test_failed_increase_compensates(self, env):
        pipe, tm = self._pipeline(env)
        before = self._total_nodes(pipe)
        tm.trade_faults.append("increase")

        def proc(env):
            yield env.timeout(1)
            yield tm.run_trade(pipe.global_manager, "helper", "bonds", 1)

        env.process(proc(env))
        env.run(until=50)
        assert tm.trades_compensated == 1
        # Node went to the spare pool, not lost.
        assert pipe.scheduler.free_nodes == 1
        assert self._total_nodes(pipe) == before

    def test_failed_decrease_aborts_cleanly(self, env):
        pipe, tm = self._pipeline(env)
        before = self._total_nodes(pipe)
        tm.trade_faults.append("decrease")

        def proc(env):
            yield env.timeout(1)
            yield tm.run_trade(pipe.global_manager, "helper", "bonds", 1)

        env.process(proc(env))
        env.run(until=50)
        assert tm.trades_aborted == 1
        assert pipe.containers["helper"].units == 4  # untouched
        assert self._total_nodes(pipe) == before

    def test_infeasible_trade_rejected_at_prepare(self, env):
        pipe, tm = self._pipeline(env)

        def proc(env):
            yield env.timeout(1)
            yield tm.run_trade(pipe.global_manager, "helper", "bonds", 10)

        env.process(proc(env))
        env.run(until=50)
        assert tm.trades_aborted == 1
        assert pipe.containers["helper"].units == 4
