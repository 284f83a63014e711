"""Tests for the repro.faults subsystem: plans, injection, detection."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simkernel import Environment
from repro.cluster import Machine, TransferError
from repro.cluster.scheduler import FAILED
from repro.evpath import Messenger
from repro.faults import (
    ClusterFaultInjector,
    FailureDetector,
    FaultKind,
    FaultPlan,
    HeartbeatMonitor,
    NetworkFaultState,
)
from tests.oracles.faults import FailureDetector as ScanningDetector, HeartbeatSender
from repro.evpath.messages import MessageType
from repro.perf.registry import REGISTRY


class TestFaultPlan:
    def test_same_seed_same_signature(self):
        a = FaultPlan.random(7, node_ids=range(8), horizon=100.0,
                             crashes=2, slowdowns=1, drops=1)
        b = FaultPlan.random(7, node_ids=range(8), horizon=100.0,
                             crashes=2, slowdowns=1, drops=1)
        assert a.signature() == b.signature()
        assert a.events == b.events

    def test_different_seed_different_signature(self):
        a = FaultPlan.random(7, node_ids=range(8), horizon=100.0)
        b = FaultPlan.random(8, node_ids=range(8), horizon=100.0)
        assert a.signature() != b.signature()

    def test_events_sorted_by_time(self):
        plan = FaultPlan()
        plan.node_crash(50.0, 3)
        plan.node_crash(10.0, 1)
        plan.node_slowdown(30.0, 2, factor=2.0, duration=5.0)
        assert [e.time for e in plan.events] == [10.0, 30.0, 50.0]

    def test_validation(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="target"):
            plan.add(FaultKind.NODE_CRASH, 1.0)
        with pytest.raises(ValueError, match="duration"):
            plan.node_slowdown(1.0, 0, factor=2.0, duration=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            plan.node_slowdown(1.0, 0, factor=0.5, duration=5.0)
        with pytest.raises(ValueError, match="probability"):
            plan.message_drop(1.0, (0,), probability=1.5, duration=5.0)
        with pytest.raises(ValueError, match=">= 0"):
            plan.node_crash(-1.0, 0)

    def test_scripted_validation_and_lookup(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="unknown behaviour"):
            plan.script("txn", ("p", 1), "explode")
        with pytest.raises(ValueError, match="unknown scripted-fault domain"):
            plan.script("nope", ("p", 1), "abort")
        plan.script("txn", ("p", 1), "crash")
        assert plan.lookup("txn", ("p", 2)) is None
        assert plan.lookup("txn", ("p", 1)) == "crash"
        assert ("txn", ("p", 1)) in plan.triggered

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        crashes=st.integers(min_value=0, max_value=3),
        slowdowns=st.integers(min_value=0, max_value=3),
        drops=st.integers(min_value=0, max_value=3),
    )
    def test_any_seeded_plan_replays_identically(self, seed, crashes,
                                                 slowdowns, drops):
        """Property: a seeded plan is a pure function of its arguments."""
        make = lambda: FaultPlan.random(
            seed, node_ids=range(12), horizon=200.0,
            crashes=crashes, slowdowns=slowdowns, drops=drops,
        )
        a, b = make(), make()
        assert a.signature() == b.signature()
        assert a.events == b.events


class TestInjector:
    def test_crash_marks_node_and_scheduler(self, env, machine):
        from repro.cluster.scheduler import BatchScheduler

        part = machine.partition("pool", 4)
        sched = BatchScheduler(env, part)
        plan = FaultPlan()
        plan.node_crash(5.0, part[1].node_id)
        seen = []
        injector = ClusterFaultInjector(env, plan, part.nodes, scheduler=sched)
        injector.on_crash(seen.append)
        injector.start()
        env.run(until=10.0)
        assert part[1].failed
        assert sched.owner(part[1]) == FAILED
        assert seen == [part[1]]

    def test_slowdown_window_stretches_compute(self, env, machine):
        node = machine.nodes[0]
        plan = FaultPlan()
        plan.node_slowdown(0.0, node.node_id, factor=3.0, duration=10.0)
        ClusterFaultInjector(env, plan, [node]).start()

        durations = []

        def work():
            start = env.now
            yield node.compute(1.0)
            durations.append(env.now - start)

        env.process(work())
        env.run(until=50.0)

        def work_after():
            start = env.now
            yield node.compute(1.0)
            durations.append(env.now - start)

        env.process(work_after())
        env.run(until=100.0)
        assert durations[0] == pytest.approx(3.0)
        assert durations[1] == pytest.approx(1.0)

    def test_identical_seed_identical_trace(self):
        traces = []
        for _ in range(2):
            env = Environment()
            machine = Machine(env, num_nodes=8)
            plan = FaultPlan.random(3, node_ids=range(8), horizon=60.0,
                                    crashes=2, slowdowns=1)
            injector = ClusterFaultInjector(env, plan, machine.nodes)
            injector.start()
            env.run(until=120.0)
            traces.append(list(injector.trace))
        assert traces[0] == traces[1]

    def test_unknown_target_raises(self, env, machine):
        plan = FaultPlan()
        plan.node_crash(1.0, 999)
        ClusterFaultInjector(env, plan, machine.nodes).start()
        with pytest.raises(ValueError, match="unknown node 999"):
            env.run(until=5.0)


class TestNetworkFaultState:
    def test_partition_window(self, env, machine):
        a, b = machine.nodes[0], machine.nodes[1]
        plan = FaultPlan()
        plan.link_partition(10.0, (a.node_id,), duration=5.0)
        state = NetworkFaultState(env, plan)
        machine.network.faults = state

        outcomes = {}

        def xfer(at, label):
            yield env.timeout(at - env.now)
            try:
                yield machine.network.transfer(a, b, 1024)
                outcomes[label] = "ok"
            except TransferError:
                outcomes[label] = "partitioned"

        env.process(xfer(11.0, "inside"))
        env.run(until=30.0)
        env.process(xfer(30.0, "after"))
        env.run(until=60.0)
        assert outcomes == {"inside": "partitioned", "after": "ok"}
        assert state.partitioned == 1

    def test_certain_drop(self, env, machine):
        a, b = machine.nodes[2], machine.nodes[3]
        plan = FaultPlan()
        plan.message_drop(0.0, (b.node_id,), probability=1.0, duration=100.0)
        machine.network.faults = NetworkFaultState(env, plan)

        def xfer():
            with pytest.raises(TransferError):
                yield machine.network.transfer(a, b, 1024)

        env.process(xfer())
        env.run(until=10.0)
        assert machine.network.faults.dropped == 1

    def test_degrade_slows_transfer(self, env, machine):
        a, b = machine.nodes[4], machine.nodes[5]
        durations = []

        def xfer():
            start = env.now
            yield machine.network.transfer(a, b, 10 * 2**20)
            durations.append(env.now - start)

        env.process(xfer())
        env.run(until=50.0)

        env2 = Environment()
        machine2 = Machine(env2, num_nodes=16)
        a2, b2 = machine2.nodes[4], machine2.nodes[5]
        plan = FaultPlan()
        plan.link_degrade(0.0, (a2.node_id,), factor=4.0, duration=100.0)
        machine2.network.faults = NetworkFaultState(env2, plan)

        def xfer2():
            start = env2.now
            yield machine2.network.transfer(a2, b2, 10 * 2**20)
            durations.append(env2.now - start)

        env2.process(xfer2())
        env2.run(until=50.0)
        assert durations[1] == pytest.approx(durations[0] * 4.0, rel=0.01)


class TestFailureDetector:
    def test_silent_member_suspected(self, env):
        suspects = []
        det = FailureDetector(env, "t", lease_timeout=4.0,
                              on_suspect=suspects.append)
        det.watch("r0")
        det.watch("r1")

        def beater():
            while True:
                yield env.timeout(1.0)
                det.beat("r0")  # r1 stays silent

        env.process(beater())
        det.start()
        env.run(until=20.0)
        assert suspects == ["r1"]
        assert "r1" in det.suspected
        assert "r0" not in det.suspected

    def test_false_positive_accounting(self, env):
        det = FailureDetector(env, "t", lease_timeout=2.0)
        det.watch("r0")
        det.start()
        env.run(until=5.0)
        assert "r0" in det.suspected
        det.beat("r0")
        assert det.false_positives == 1
        assert "r0" not in det.suspected

    def test_suspend_regrants_leases(self, env):
        down = {"flag": False}
        suspects = []
        det = FailureDetector(env, "t", lease_timeout=3.0,
                              on_suspect=suspects.append,
                              suspend_when=lambda: down["flag"])
        det.watch("r0")
        det.start()

        def script():
            down["flag"] = True
            yield env.timeout(20.0)  # far beyond the lease
            down["flag"] = False

        env.process(script())
        env.run(until=22.0)
        # The detector's own outage must not convict the member...
        assert suspects == []
        env.run(until=40.0)
        # ...but continued silence after resume does.
        assert suspects == ["r0"]

    def test_heartbeats_end_to_end(self, env, machine, messenger):
        """The manager's path: a grid lease at a HeartbeatMonitor's detector
        is credited without a single HEARTBEAT message, and a crash silences
        it into a suspicion."""
        mon_node, rep_node = machine.nodes[0], machine.nodes[1]
        suspects = []
        det = FailureDetector(env, "lm", lease_timeout=3.0,
                              on_suspect=suspects.append)
        HeartbeatMonitor(env, messenger, "lm-hb", mon_node, det)
        before = REGISTRY.counter("faults.lease_beats_credited")
        det.watch("r0", rep_node, interval=1.0)
        det.start()
        env.run(until=10.0)
        assert suspects == []
        assert det.beats > 5
        assert REGISTRY.counter("faults.lease_beats_credited") - before == det.beats
        assert messenger.messages_sent == 0
        rep_node.fail()
        env.run(until=20.0)
        assert suspects == ["r0"]


def _lease_rig(env, machine, messenger, lease=5.0, detector=FailureDetector):
    """A replica detector wired the way LocalManager wires one: suspicion
    pauses while the monitor's node is down."""
    suspects = []
    det = detector(
        env, "lm", lease_timeout=lease,
        on_suspect=lambda m: suspects.append((m, env.now)),
        suspend_when=lambda: det.monitor.endpoint.node.failed,
    )
    monitor = HeartbeatMonitor(env, messenger, "lm-hb", machine.nodes[0], det)
    return det, monitor, suspects


def _at(env, t, fn):
    def proc():
        yield env.timeout(t - env.now)
        fn()

    return env.process(proc())


class TestLeaseGrid:
    def test_node_failed_at_set_and_cleared(self, env, machine):
        node = machine.nodes[3]
        assert node.failed_at is None
        _at(env, 2.5, node.fail)
        env.run(until=4.0)
        assert node.failed and node.failed_at == 2.5
        node.restore()
        assert not node.failed and node.failed_at is None

    def test_crash_on_grid_point_at_scan_instant_not_credited(self, env, machine, messenger):
        """Crash at 5.0 is a grid point *and* a scan instant: the beat due
        then is dead, so the last credited beat is 4.0 and suspicion lands
        on the first scan more than the 5 s lease later (10.0), not 11.25."""
        node = machine.nodes[1]
        _at(env, 5.0, node.fail)
        det, _, suspects = _lease_rig(env, machine, messenger)
        det.watch("r0", node, interval=1.0)
        det.start()
        env.run(until=30.0)
        assert suspects == [("r0", 10.0)]
        assert det.beats == 4  # 1.0 .. 4.0

    def test_crash_between_grid_points(self, env, machine, messenger):
        node = machine.nodes[1]
        _at(env, 5.5, node.fail)
        det, _, suspects = _lease_rig(env, machine, messenger)
        det.watch("r0", node, interval=1.0)
        det.start()
        env.run(until=30.0)
        assert suspects == [("r0", 11.25)]
        assert det.beats == 5  # 1.0 .. 5.0

    def test_dead_monitor_window_then_rehost(self, env, machine, messenger):
        """Beats due while the monitor's node is down are never credited;
        after the rehost the grid resumes at the new host."""
        node, spare = machine.nodes[1], machine.nodes[2]
        det, mon, suspects = _lease_rig(env, machine, messenger)
        _at(env, 3.0, machine.nodes[0].fail)
        _at(env, 8.0, lambda: mon.rehost(spare))
        det.watch("r0", node, interval=1.0)
        det.start()
        env.run(until=20.5)
        assert suspects == []
        assert det._outages == [(3.0, 8.0)]
        # 1.0, 2.0 before the crash; 3.0-7.0 died with the monitor; the
        # resume scan at 8.75 credits 8.0; scans through 20.0 credit 9-19.
        assert det.beats == 2 + 1 + 11
        assert det.false_positives == 0

    def test_unwatch_credits_up_to_now(self, env, machine, messenger):
        det, _, _ = _lease_rig(env, machine, messenger)
        det.watch("r0", machine.nodes[1], interval=1.0)
        det.start()
        before = REGISTRY.counter("faults.lease_beats_credited")
        _at(env, 4.0, lambda: det.unwatch("r0"))
        env.run(until=10.0)
        # the scan at 3.75 credited 1-3; unwatch at 4.0 credits 4.0 itself
        assert det.beats == 4
        assert REGISTRY.counter("faults.lease_beats_credited") - before == 4
        assert "r0" not in det and det.members == []

    def test_grid_watch_needs_positive_interval(self, env, machine):
        det = FailureDetector(env, "lm", lease_timeout=5.0)
        with pytest.raises(ValueError, match="interval"):
            det.watch("r0", machine.nodes[1], interval=0.0)


def _detect(arm, timing, replicas, managers, outage, window, samples):
    """Run one drawn schedule on one detector arm; returns the ``(member,
    time)`` suspicions in ``on_suspect`` order, false positives and the
    beats read at each sampled instant.

    ``arm`` is ``"quiescent"`` (the production detector), ``"scanning"``
    (the reference detector with the same grid leases) or ``"sender"`` (the
    reference detector fed by one :class:`HeartbeatSender` per replica).
    """
    interval, lease = timing
    env = Environment()
    machine = Machine(env, num_nodes=16, cores_per_node=4)
    messenger = Messenger(env, machine.network)
    nodes = machine.nodes
    # Fault processes first: at a shared instant the crash precedes the beat.
    for i, (_, crash_at, back_after) in enumerate(replicas):
        if crash_at is not None:
            _at(env, crash_at, nodes[1 + i].fail)
            if back_after is not None:
                _at(env, crash_at + back_after, nodes[1 + i].restore)
    detector = FailureDetector if arm == "quiescent" else ScanningDetector
    det, mon, suspects = _lease_rig(env, machine, messenger, lease=lease,
                                    detector=detector)
    if outage is not None:
        down, up = outage
        _at(env, down, nodes[0].fail)
        _at(env, up, lambda: mon.rehost(nodes[4]))
    if window is not None:
        start, length, target = window
        plan = FaultPlan()
        plan.link_partition(start, (nodes[1 + target % len(replicas)].node_id,),
                            duration=length)
        faults = machine.network.faults = NetworkFaultState(env, plan)
        if arm != "sender":
            det.arm_links(faults)

    def watch(name, node):
        if arm == "sender":
            det.watch(name)
            HeartbeatSender(env, messenger, name, node, "lm-hb", interval).start()
        else:
            det.watch(name, node, interval)

    for i, (watch_at, _, _) in enumerate(replicas):
        _at(env, watch_at, lambda i=i: watch(f"r{i}", nodes[1 + i]))
    # Beat-only members: a manager's lease lives on its metric reports.
    for j, (watch_at, beats) in enumerate(managers):
        name = f"m{j}"
        _at(env, watch_at, lambda name=name: det.watch(name))
        for t in beats:
            _at(env, watch_at + t, lambda name=name: det.beat(name))
    det.start()
    read = []
    for t in samples:
        env.run(until=t)
        read.append(det.beats)
    env.run(until=60.0)
    return suspects, det.false_positives, read


_sixteenths = st.integers(0, 16 * 30).map(lambda n: n / 16.0)

_schedules = dict(
    timing=st.sampled_from([(1.0, 5.0), (0.5, 2.0), (0.25, 3.0), (2.0, 8.0), (1.5, 6.0),
                            (2.0, 5.0)]),
    replicas=st.lists(
        st.tuples(st.integers(0, 80).map(lambda n: n / 16.0), st.none() | _sixteenths,
                  st.none() | st.integers(1, 160).map(lambda n: n / 16.0)),
        min_size=1, max_size=3),
    managers=st.lists(
        st.tuples(st.integers(0, 80).map(lambda n: n / 16.0),
                  st.lists(_sixteenths, max_size=8).map(sorted)),
        max_size=2),
    outage=st.none() | st.tuples(_sixteenths, st.integers(8, 160).map(lambda n: n / 16.0)),
    window=st.none() | st.tuples(_sixteenths, st.integers(8, 160).map(lambda n: n / 16.0),
                                 st.integers(0, 2)),
    samples=st.lists(st.integers(1, 16 * 59).map(lambda n: n / 16.0 + 1 / 64),
                     max_size=4, unique=True).map(sorted),
)


class TestLeaseGridDifferential:
    """The quiescent detector against the scanning one it replaced and the
    per-replica HeartbeatSender before that, on an otherwise idle machine:
    replicas with crashes (some restored), beat-only manager members, a
    monitor outage (host suspension) followed by a rehost, and a partition
    window.  Times
    are drawn on a 1/16 s grid, so no scan lands within a beat's
    microsecond transit of a lease boundary; beats are read a 1/64 s off
    that grid, between scan instants.

    Against the scanning detector everything matches exactly: suspicion
    instants, ``on_suspect`` order, false positives and every beat count
    read.  Against the sender the suspicions and false positives do,
    monitor outages included: the reference's retry ladder can land a beat
    sent into the dead monitor at the rehosted one up to 0.35 s after the
    rehost, which the grid never credits, but the resume scan re-grants
    every lease and the lease is a whole number of scans, so that late beat
    cannot move a suspicion.  That needs a scan inside the outage: an
    outage shorter than one scan step may hold none, so nothing re-grants,
    and the late beat then moves the sender's suspicion one scan later
    (e.g. a replica crash at 7.1875 after an outage over [6.3125, 7.0625)
    at a 5 s lease: 12.5 at the sender, 11.25 on the grid).  A restored
    node differs too: the grid credits the beats due between the last scan
    of the crash and the restore, which a sender never sent.  The sender is
    compared only on outages of at least one scan step and without
    restores."""

    @staticmethod
    def check(timing, replicas, managers, outage, window, samples):
        if outage is not None:
            outage = (outage[0], outage[0] + outage[1])
        args = (timing, replicas, managers, outage, window, samples)
        new = _detect("quiescent", *args)
        assert new == _detect("scanning", *args)
        restored = any(crash is not None and back is not None
                       for _, crash, back in replicas)
        if not restored and (outage is None or outage[1] - outage[0] >= timing[1] / 4):
            assert new[:2] == _detect("sender", *args)[:2]

    @settings(max_examples=60, deadline=None)
    @given(**_schedules)
    # skipped instants before a suspension are still credited (read 1 beat)
    @example(timing=(1.0, 5.0), replicas=[(0.0, None, None)], managers=[],
             outage=(1.3125, 1.25), window=None, samples=[2.515625])
    # a restore leaves the lease stale: suspected at 10.0 though its node is up
    @example(timing=(2.0, 5.0), replicas=[(0.0, 4.5, 4.5)], managers=[],
             outage=None, window=None, samples=[9.015625])
    def test_matches_reference_sender(self, **schedule):
        self.check(**schedule)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(**_schedules)
    def test_matches_reference_sender_wide(self, **schedule):
        self.check(**schedule)


def _record_sends(env, messenger):
    """Wrap ``messenger.send`` to log ``(time, sender, mtype)`` per send."""
    log = []
    send = messenger.send

    def logged(src, to, message):
        log.append((env.now, message.sender, message.mtype))
        return send(src, to, message)

    messenger.send = logged
    return log


class TestLeaseLinkWindows:
    def test_short_partition_sends_real_beats_only_inside_window(self, env, machine, messenger):
        member = machine.nodes[1]
        plan = FaultPlan()
        plan.link_partition(10.0, (member.node_id,), duration=2.0)
        faults = machine.network.faults = NetworkFaultState(env, plan)
        log = _record_sends(env, messenger)
        det, _, suspects = _lease_rig(env, machine, messenger)
        det.watch("r0", member, interval=1.0)
        det.arm_links(faults)
        det.start()
        env.run(until=30.0)
        beats = [t for t, _, mtype in log if mtype is MessageType.HEARTBEAT]
        assert beats == [10.0, 11.0]
        assert faults.partitioned > 0
        assert suspects == [] and det.false_positives == 0
        # the two lost beats were never credited: 28 grid beats before 30.0
        assert det.beats == 29 - 2

    def test_window_decided_when_beat_is_due(self, env, machine, messenger):
        """Windows armed after the watch still materialise its beats; a
        window on an unrelated pair leaves the grid arithmetic."""
        member = machine.nodes[1]
        plan = FaultPlan()
        plan.link_partition(5.0, (machine.nodes[7].node_id,), duration=3.0)
        det, _, _ = _lease_rig(env, machine, messenger)
        det.watch("r0", member, interval=1.0)
        log = _record_sends(env, messenger)

        def arm():
            faults = machine.network.faults = NetworkFaultState(env, plan)
            det.arm_links(faults)

        _at(env, 2.0, arm)
        det.start()
        env.run(until=20.0)
        assert log == []
        assert det.beats == 19


class TestQuiescentScans:
    """The detector wakes only where a scan can change something."""

    def test_healthy_lease_never_wakes(self, env, machine, messenger):
        det, _, suspects = _lease_rig(env, machine, messenger)
        det.watch("r0", machine.nodes[1], interval=1.0)
        det.start()
        before = REGISTRY.counter("faults.lease_beats_credited")
        env.run(until=100.0)
        assert det.scans == 0 and suspects == []
        # read as the scan at 100.0 would have credited them: 1.0 .. 99.0
        assert det.beats == 99
        assert REGISTRY.counter("faults.lease_beats_credited") - before == 99

    def test_crash_wakes_until_restored(self, env, machine, messenger):
        node = machine.nodes[1]
        _at(env, 5.5, node.fail)
        det, _, suspects = _lease_rig(env, machine, messenger)
        det.watch("r0", node, interval=1.0)
        det.start()
        env.run(until=20.0)
        assert suspects == [("r0", 11.25)]
        assert det.scans == 12  # 6.25 .. 20.0, each passing the lost beats
        node.restore()  # the next scan credits 20.0 and clears the suspicion
        env.run(until=40.0)
        assert det.false_positives == 1 and det.suspected == set()
        assert det.scans == 13 and det.beats == 5 + 20  # 1-5, then 20-39

    def test_beat_only_member_wakes_once_per_lease(self, env):
        suspects = []
        det = FailureDetector(env, "gm", lease_timeout=5.0,
                              on_suspect=suspects.append)
        det.watch("m0")

        def reporter():
            while env.now < 50.0:
                yield env.timeout(1.0)
                det.beat("m0")

        env.process(reporter())
        det.start()
        env.run(until=100.0)
        # a wake at the first instant a lease past the last beat seen:
        # 6.25, 11.25, ..., 51.25, then 56.25 (past the final report, 50.0)
        # suspects; the scanning detector would have woken 80 times
        assert det.scans == 11
        assert suspects == ["m0"]

    def test_outage_hiding_a_beat_wakes(self):
        """Beats 3-7 died with the monitor, so the scan at 7.5 finds the
        lease silent since 2.0.  The outage is recorded after the monitor
        is re-pinned, so only the outage itself says a scan is due."""
        found = []
        for detector in (FailureDetector, ScanningDetector):
            env = Environment()
            machine = Machine(env, num_nodes=8, cores_per_node=1)
            messenger = Messenger(env, machine.network)
            suspects = []
            det = detector(env, "lm", lease_timeout=5.0,
                           on_suspect=lambda m: suspects.append((m, env.now)))
            mon = HeartbeatMonitor(env, messenger, "lm-hb", machine.nodes[0], det)

            def repin():
                mon.endpoint.node = machine.nodes[4]
                det.monitor_outage(2.125, 7.25)

            _at(env, 2.125, machine.nodes[0].fail)
            _at(env, 7.25, repin)
            det.watch("r0", machine.nodes[1], interval=1.0)
            det.start()
            env.run(until=20.0)
            found.append((suspects, det.false_positives, det.beats))
        assert found[0] == found[1] == ([("r0", 7.5)], 1, 2 + 12)

    def test_stop_credits_the_skipped_scans(self):
        counts = []
        for detector in (FailureDetector, ScanningDetector):
            before = REGISTRY.counter("faults.lease_beats_credited")
            env = Environment()
            machine = Machine(env, num_nodes=4, cores_per_node=1)
            det, _, _ = _lease_rig(env, machine, Messenger(env, machine.network),
                                   detector=detector)
            det.watch("r0", machine.nodes[1], interval=1.0)
            det.start()
            env.run(until=20.5)
            det.stop()
            counts.append(REGISTRY.counter("faults.lease_beats_credited") - before)
        assert counts == [19, 19]

    def test_node_health_notifies_the_run(self, env, machine):
        seen = []
        env.health_listeners.append(lambda node: seen.append((node.node_id, node.failed)))
        machine.nodes[3].fail()
        machine.nodes[3].restore()
        assert seen == [(3, True), (3, False)]
        assert Environment().health_listeners == []

    @staticmethod
    def _fig7_scans():
        from repro.spec import build, load_preset

        pipe = build(Environment(), load_preset("fig7"))
        pipe.run(settle=60)
        return ([lm.detector.scans for lm in pipe.managers.values()],
                pipe.recovery.manager_detector.scans)

    def test_fault_free_fig7_local_detectors_never_wake(self):
        local, managers = self._fig7_scans()
        assert local == [0] * len(local) and local
        assert managers > 0  # manager leases ride metric reports: beat-only
        assert self._fig7_scans() == (local, managers)
