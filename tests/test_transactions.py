"""Tests for D2T transactions: commit, abort, crashes, scalability, trades."""

import pytest

from repro.simkernel import Environment
from repro.cluster import Machine
from repro.evpath import Messenger
from repro.transactions import FailureInjector, TransactionManager, TxnGroup, TxnParticipant


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
