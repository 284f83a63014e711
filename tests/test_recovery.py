"""Integration tests: failure detection, REPLACE recovery, degradation."""

from collections import Counter

import pytest

from repro import Environment
from repro.cluster.scheduler import FAILED
from repro.faults import FaultPlan
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build as build_spec, load_preset


def build(env, spare=2, steps=10, staging=13, stages=None, **builder):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=staging + spare,
                      spare=spare, steps=steps)
    builder.setdefault("control_interval", 10_000)
    builder.setdefault("fault_tolerance", True)
    return build_spec(env, PipelineSpec("recovery", workload=wl, stages=stages,
                                        builder=dict(seed=0, **builder)))


def crash_plan(node, at=30.0):
    plan = FaultPlan(seed=1)
    plan.node_crash(at, node.node_id)
    return plan


class TestReplace:
    def test_crashed_replica_replaced_from_spare(self):
        env = Environment()
        pipe = build(env, spare=2)
        bonds = pipe.containers["bonds"]
        victim = bonds.replicas[1]  # replicas[0]'s node co-hosts the manager
        pipe.arm_faults(crash_plan(victim.node))

        finished = pipe.run(settle=200)

        assert finished
        assert bonds.units == 4  # capacity restored
        assert victim not in bonds.replicas
        assert all(not r.node.failed for r in bonds.replicas)
        recs = [r for r in pipe.recovery.replacements if r["type"] == "replace"]
        assert len(recs) == 1
        assert recs[0]["container"] == "bonds"
        assert recs[0]["method"] == "spare"
        # Detection happened within the lease after the crash at t=30.
        detector = pipe.managers["bonds"].detector
        assert detector.suspected == set()  # cleared by replacement
        assert 30.0 < recs[0]["suspected_at"] < 30.0 + 3 * 5.0
        assert recs[0]["completed_at"] > recs[0]["suspected_at"]

    def test_no_duplicate_timesteps_after_redelivery(self):
        env = Environment()
        pipe = build(env, spare=2)
        victim = pipe.containers["bonds"].replicas[2]
        pipe.arm_faults(crash_plan(victim.node, at=35.0))

        assert pipe.run(settle=200)

        exits = [ts for _, ts, _ in pipe.end_to_end]
        assert exits, "pipeline delivered nothing"
        assert len(exits) == len(set(exits)), "duplicate timesteps delivered"
        # Chained custody: every timestep delivered exactly once, including
        # any that were mid-flight (queued, in service, or produced but not
        # yet pulled downstream) on the crashed node.
        total = pipe.driver.workload.total_steps
        assert set(exits) == set(range(total)), "timesteps lost in the crash"

    def test_empty_spare_pool_steals_from_donor(self):
        env = Environment()
        pipe = build(env, spare=0)
        # Stealing requires a donor with headroom; pin the estimate so the
        # test exercises the recovery ladder, not the sizing model.
        pipe.managers["bonds"].headroom = lambda sla: 3
        csym = pipe.containers["csym"]
        victim = csym.replicas[1]
        pipe.arm_faults(crash_plan(victim.node))

        assert pipe.run(settle=250)

        recs = [r for r in pipe.recovery.replacements if r["type"] == "replace"]
        assert len(recs) == 1
        assert recs[0]["method"] == "steal:bonds"
        assert csym.units == 3  # restored at the donor's expense
        assert pipe.containers["bonds"].units == 3

    def test_stateful_replacement_remigrates_state(self, monkeypatch):
        from repro.smartpointer.component import (
            FRAGMENTS_COMPONENT,
            SMARTPOINTER_COMPONENTS,
        )

        monkeypatch.setitem(
            SMARTPOINTER_COMPONENTS, "fragments", FRAGMENTS_COMPONENT
        )
        env = Environment()
        stages = (
            StageSpec("helper", 4, model="tree"),
            StageSpec("fragments", 3, upstream="helper"),
        )
        pipe = build(env, spare=2, staging=7, stages=stages)
        frags = pipe.containers["fragments"]
        victim = frags.replicas[1]
        pipe.arm_faults(crash_plan(victim.node))

        pipe.run(settle=200)

        replaces = pipe.control_trace.of("replace")
        assert len(replaces) == 1
        record = replaces[0]
        assert record.breakdown.get("state_migration", 0.0) > 0.0
        assert any("state snapshot" in label for label in record.labels)
        assert frags.units == 3

    def test_degrades_to_offline_when_no_capacity(self):
        env = Environment()
        pipe = build(env, spare=0)
        pipe.recovery._pick_donor = lambda exclude: None  # nobody can donate
        victim = pipe.containers["csym"].replicas[1]
        pipe.arm_faults(crash_plan(victim.node))

        pipe.run(settle=200)

        assert "csym" in pipe.recovery.degraded
        assert pipe.containers["csym"].offline
        recs = [r for r in pipe.recovery.replacements if r["type"] == "degrade"]
        assert recs and recs[0]["reason"] == "no replacement node"


def sink_write_window():
    """Run the bundled fig7 spec and return csym-r1's node id and the
    instants its first disk write starts and lands, found by wrapping the
    sink's ``write_chunk``."""
    env = Environment()
    pipe = build_spec(env, load_preset("fig7"))
    csym = pipe.containers["csym"]
    victim = csym.replicas[1]
    windows = []
    write_chunk = csym.sink_fs.write_chunk

    def spy(node, *args, **kwargs):
        event = write_chunk(node, *args, **kwargs)
        if node is victim.node:
            start = env.now
            event.callbacks.append(lambda _: windows.append((start, env.now)))
        return event

    csym.sink_fs.write_chunk = spy
    pipe.run(settle=120)
    return victim.node.node_id, windows[0]


class TestCrashMidEmit:
    def test_crash_during_sink_write_is_replaced_and_redelivered(self):
        """A crash that lands after the service's compute, while the sink's
        disk write is in flight, ends the replica's worker quietly: REPLACE
        recovers it and custody redelivers the chunk that was being
        written."""
        node_id, (start, landed) = sink_write_window()
        assert landed > start
        env = Environment()
        pipe = build_spec(env, load_preset("fig7"))
        plan = FaultPlan(seed=1)
        plan.node_crash((start + landed) / 2, node_id)
        pipe.arm_faults(plan)

        assert pipe.run(settle=120)

        recs = [r for r in pipe.recovery.replacements if r["type"] == "replace"]
        assert [(r["container"], r["method"], r["redelivered"]) for r in recs] == [
            ("csym", "spare", 1)]
        assert pipe.fates.unfated() == set()
        delivered = Counter((sink, step) for _, sink, step in pipe.exit_log)
        sinks = {sink for sink, _ in delivered}
        steps = range(pipe.driver.workload.total_steps)
        assert set(delivered) == {(sink, step) for sink in sinks for step in steps}
        assert set(delivered.values()) == {1}


class TestManagerRecovery:
    def test_manager_rehosted_then_replica_replaced(self):
        env = Environment()
        pipe = build(env, spare=2, monitor_interval=5.0)
        bonds = pipe.containers["bonds"]
        manager = pipe.managers["bonds"]
        victim = bonds.replicas[0]  # co-hosts the local manager
        dead_node = victim.node
        assert manager.node is dead_node
        pipe.arm_faults(crash_plan(victim.node, at=40.0))

        assert pipe.run(settle=300)

        kinds = {r["type"] for r in pipe.recovery.replacements}
        assert "manager_rehost" in kinds
        assert manager.node is not dead_node
        assert not manager.node.failed
        assert manager.endpoint.node is manager.node
        # After the rehost the replica detector resumes and surfaces the
        # co-hosted replica's death through the normal REPLACE path.
        assert "replace" in kinds
        assert bonds.units == 4


class TestAbortPaths:
    def test_increase_aborts_when_target_node_dies(self):
        env = Environment()
        pipe = build(env, spare=0, fault_tolerance=False)
        gm = pipe.global_manager
        out = {}

        def ctl(env):
            yield env.timeout(1)
            freed = yield gm.decrease("bonds", 1)
            freed[0].fail()  # dies between the decrease and the increase
            res = yield gm.increase("csym", 1, nodes=freed)
            out["res"] = res
            out["node"] = freed[0]

        env.process(ctl(env))
        pipe.run(settle=120)
        assert out["res"]["aborted"] is True
        assert pipe.scheduler.owner(out["node"]) == FAILED
        assert pipe.containers["csym"].units == 3  # recipient untouched
        assert any("increase csym aborted" in a for a in gm.actions_taken)

    def test_steal_aborts_and_returns_survivors_to_pool(self):
        env = Environment()
        pipe = build(env, spare=0, fault_tolerance=False)
        gm = pipe.global_manager
        out = {}
        orig_decrease = gm.decrease

        def sabotaged(name, count, to):
            def proc():
                freed = yield orig_decrease(name, count, to)
                for node in freed:
                    node.fail()  # donor's nodes die mid-trade
                return freed
            return env.process(proc())

        gm.decrease = sabotaged

        def ctl(env):
            yield env.timeout(1)
            out["res"] = yield gm.steal("bonds", "csym", 1)

        env.process(ctl(env))
        pipe.run(settle=120)
        assert out["res"] == []
        assert pipe.containers["csym"].units == 3
        assert any("returned to spare pool" in a for a in gm.actions_taken)
        assert len(pipe.scheduler.owned_by(FAILED)) == 1


class TestReplayIdentity:
    def test_identical_seed_identical_run(self):
        results = []
        for _ in range(2):
            env = Environment()
            pipe = build(env, spare=2)
            victim = pipe.containers["bonds"].replicas[1]
            plan = FaultPlan(seed=7)
            plan.node_crash(30.0, victim.node.node_id)
            plan.node_slowdown(60.0, pipe.containers["csym"]
                               .replicas[0].node.node_id,
                               factor=2.0, duration=20.0)
            pipe.arm_faults(plan)
            pipe.run(settle=200)
            results.append({
                "trace": list(pipe.fault_injector.trace),
                "exits": list(pipe.end_to_end),
                "replacements": [
                    (r["type"], r["container"], r.get("method"))
                    for r in pipe.recovery.replacements
                ],
            })
        assert results[0] == results[1]


class TestLeaseLinkWindows:
    """Replica leases under link-fault windows, end to end."""

    def test_partition_longer_than_lease_is_suspected_refused_and_healed(self):
        env = Environment()
        pipe = build(env, spare=2)
        bonds = pipe.containers["bonds"]
        victim = bonds.replicas[1]  # replicas[0]'s node co-hosts the manager
        plan = FaultPlan(seed=1)
        plan.link_partition(30.0, (victim.node.node_id,), duration=12.0)
        pipe.arm_faults(plan)

        pipe.run(settle=200)

        detector = pipe.managers["bonds"].detector
        assert pipe.recovery.refused == 1  # node healthy: no REPLACE
        assert detector.false_positives == 1  # cleared once the partition healed
        assert detector.suspected == set()
        assert victim in bonds.replicas
        assert not [r for r in pipe.recovery.replacements if r["type"] == "replace"]

    def test_fabric_wide_drop_window_materialises_every_pair(self):
        from repro.evpath.messages import MessageType

        env = Environment()
        pipe = build(env, spare=2)
        plan = FaultPlan(seed=1)
        plan.message_drop(30.0, (), probability=0.3, duration=3.0)
        pipe.arm_faults(plan)
        log = []
        send = pipe.messenger.send

        def logged(src, to, message):
            log.append((env.now, message.sender, message.mtype))
            return send(src, to, message)

        pipe.messenger.send = logged
        pipe.run(settle=200)

        beats = [(t, who) for t, who, mtype in log if mtype is MessageType.HEARTBEAT]
        watched = {m for lm in pipe.managers.values() for m in lm.detector.members}
        assert {who for _, who in beats} == watched
        assert all(30.0 <= t < 33.0 for t, _ in beats)
        assert pipe.machine.network.faults.dropped > 0


class TestRetiredLeases:
    def test_retire_paths_drop_the_lease(self, monkeypatch):
        """DECREASE and OFFLINE retire replicas; each must leave its
        manager's detector, and no grid beat may be credited to it after
        its retire time."""
        from repro.containers.replica import Replica
        from repro.faults import FailureDetector
        from repro.overload.scenario import overload_burst_plan
        from repro.spec import load_preset

        retired_at = {}
        credited = []
        retire, credit = Replica.retire, FailureDetector._credit

        def record_retire(self, hard=False):
            retired_at.setdefault(self.name, self.env.now)
            return retire(self, hard)

        def record_credit(self, member, lease, upto, inclusive=False):
            beats = self._beats  # the property would credit (and recurse)
            credit(self, member, lease, upto, inclusive)
            if self._beats > beats:
                credited.append((member, self._last_beat[member]))

        monkeypatch.setattr(Replica, "retire", record_retire)
        monkeypatch.setattr(FailureDetector, "_credit", record_credit)
        env = Environment()
        pipe = build_spec(env, load_preset("overload").override(
            workload=dict(steps=24), builder=dict(seed=1)))
        pipe.arm_faults(overload_burst_plan(1, pipe))
        pipe.run(settle=600, deadline=2.0 * 24 * pipe.driver.workload.output_interval)

        assert retired_at, "the overload run retired no replica"
        for name, manager in pipe.managers.items():
            live = sorted(r.name for r in manager.container.replicas)
            assert manager.detector.members == live, name
        late = [(m, t) for m, t in credited if m in retired_at and t > retired_at[m]]
        assert late == []
