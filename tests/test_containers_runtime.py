"""Tests for containers, replicas, and local-manager protocols.

These build a minimal two-stage pipeline by hand (producer writers ->
container under test) to exercise container mechanics without the full
pipeline builder.
"""

import pytest

from repro.simkernel import Environment, SimulationError, Store
from repro.cluster import BatchScheduler, Machine
from repro.cluster.scheduler import FREE, container_owner
from repro.containers import Container, LocalManager
from repro.controlplane import ControlPlaneEngine, ControlPlaneTrace
from repro.data import DataChunk
from repro.datatap import DataTapLink, DataTapWriter, NoPullScheduler
from repro.adios import ParallelFileSystem
from repro.evpath import Message, MessageType, Messenger
from repro.fate import FateLedger
from repro.smartpointer.component import SMARTPOINTER_COMPONENTS, ComponentSpec
from repro.smartpointer.costs import ComputeModel, CostModel


def small_spec(name="bonds", base=2.0, exponent=1.0, model=ComputeModel.ROUND_ROBIN,
               output_ratio=1.0, essential=False):
    return ComponentSpec(
        name=name,
        complexity="O(n)",
        compute_models=(ComputeModel.SERIAL, ComputeModel.ROUND_ROBIN,
                        ComputeModel.TREE, ComputeModel.PARALLEL),
        dynamic_branching=False,
        cost=CostModel(name, base_seconds=base, exponent=exponent,
                       reference_atoms=1000),
        output_ratio=output_ratio,
        essential=essential,
    )


class Rig:
    """A producer link feeding one container, with a disk sink."""

    def __init__(self, env, n_nodes=12, model=ComputeModel.ROUND_ROBIN,
                 units=2, queue_capacity=2, gather_count=1, base=2.0):
        self.env = env
        self.machine = Machine(env, num_nodes=n_nodes, memory_per_node=64 * 2**30)
        self.messenger = Messenger(env, self.machine.network)
        self.fs = ParallelFileSystem(env)
        self.link = DataTapLink(env, self.messenger, "in")
        self.writer = DataTapWriter(env, self.messenger, self.machine.nodes[0], name="src")
        self.link.add_writer(self.writer)
        self.container = Container(
            env,
            self.messenger,
            small_spec(base=base),
            model,
            input_link=self.link,
            pull_scheduler=NoPullScheduler(env),
            fates=FateLedger(),
            queue_capacity=queue_capacity,
            gather_count=gather_count,
            sink_fs=self.fs,
            natoms_hint=1000,
        )
        pool = self.machine.partition("staging", 8)
        self.scheduler = BatchScheduler(env, pool)
        nodes = self.scheduler.allocate(units, container_owner(self.container.name))
        for node in nodes:
            self.container.add_replica(node)

    def feed(self, count, nbytes=1e6, natoms=1000, interval=1.0):
        def gen(env):
            for ts in range(count):
                chunk = DataChunk(timestep=ts, nbytes=nbytes, natoms=natoms,
                                  created_at=env.now, chunk_id=next(env.chunk_ids))
                chunk.entered_stage_at = env.now
                yield self.writer.write(chunk)
                yield env.timeout(interval)
        return self.env.process(gen(self.env))


class TestContainerBasics:
    def test_chunks_flow_to_sink(self, env):
        rig = Rig(env, units=2)
        rig.feed(4)
        env.run(until=60)
        assert rig.container.completions == 4
        assert len(rig.fs.files) == 4
        assert rig.fs.files[0].attributes["provenance"] == ["bonds"]

    def test_latency_recorded(self, env):
        rig = Rig(env, units=2, base=2.0)
        rig.feed(2, interval=5.0)
        env.run(until=60)
        assert rig.container.latency.count == 2
        assert rig.container.latency.mean() >= 2.0

    def test_service_time_uses_units_for_tree(self, env):
        rig = Rig(env, model=ComputeModel.TREE, units=4)
        chunk = DataChunk(timestep=0, nbytes=1, natoms=1000, chunk_id=0)
        assert rig.container.service_time(chunk) == pytest.approx(0.5)  # 2.0 / 4

    def test_rr_service_time_ignores_units(self, env):
        rig = Rig(env, units=4)
        chunk = DataChunk(timestep=0, nbytes=1, natoms=1000, chunk_id=0)
        assert rig.container.service_time(chunk) == pytest.approx(2.0)

    def test_tree_container_single_active_replica(self, env):
        rig = Rig(env, model=ComputeModel.TREE, units=3)
        actives = [r for r in rig.container.replicas if not r.passive]
        assert len(actives) == 1
        assert rig.container.units == 3

    def test_gather_assembles_fragments(self, env):
        rig = Rig(env, model=ComputeModel.TREE, units=1, gather_count=2,
                  queue_capacity=4)
        w2 = DataTapWriter(env, rig.messenger, rig.machine.nodes[1], name="src2")
        rig.link.add_writer(w2)

        def gen(env):
            for ts in range(2):
                for writer in (rig.writer, w2):
                    c = DataChunk(timestep=ts, nbytes=5e5, natoms=500, created_at=env.now,
                                  chunk_id=next(env.chunk_ids))
                    c.entered_stage_at = env.now
                    yield writer.write(c)
                yield env.timeout(5)

        env.process(gen(env))
        env.run(until=60)
        assert rig.container.completions == 2  # one merged completion per step
        # Merged chunk carries combined size.
        assert rig.fs.files[0].nbytes == pytest.approx(1e6)

    def test_gather_requires_tree(self, env):
        machine = Machine(env, num_nodes=2)
        messenger = Messenger(env, machine.network)
        with pytest.raises(SimulationError):
            Container(env, messenger, small_spec(), ComputeModel.ROUND_ROBIN,
                      None, pull_scheduler=NoPullScheduler(env), fates=FateLedger(),
                      gather_count=2)

    def test_unsupported_model_rejected(self, env):
        machine = Machine(env, num_nodes=2)
        messenger = Messenger(env, machine.network)
        helper = SMARTPOINTER_COMPONENTS["helper"]
        with pytest.raises(SimulationError):
            Container(env, messenger, helper, ComputeModel.ROUND_ROBIN, None,
                      pull_scheduler=NoPullScheduler(env), fates=FateLedger())

    def test_offline_downstream_detection(self, env):
        machine = Machine(env, num_nodes=2)
        messenger = Messenger(env, machine.network)
        link = DataTapLink(env, messenger, "out")
        c = Container(env, messenger, small_spec(), ComputeModel.ROUND_ROBIN,
                      None, pull_scheduler=NoPullScheduler(env), fates=FateLedger(),
                      output_links=[link])
        assert c.offline_downstream()  # no readers yet


class TestRemoveReplicas:
    def test_remove_requires_valid_count(self, env):
        rig = Rig(env, units=2)
        with pytest.raises(SimulationError):
            rig.container.remove_replicas(0)
        with pytest.raises(SimulationError):
            rig.container.remove_replicas(3)

    def test_remove_redispatches_queue(self, env):
        rig = Rig(env, units=2, queue_capacity=4, base=3.0)
        rig.feed(6, interval=0.1)

        def controller(env):
            yield env.timeout(2)
            yield rig.link.pause_writers()
            rig.container.remove_replicas(1)
            yield rig.link.resume_writers()

        env.process(controller(env))
        env.run(until=120)
        assert rig.container.completions == 6  # nothing lost
        assert rig.container.units == 1

    def test_tree_cannot_remove_head(self, env):
        rig = Rig(env, model=ComputeModel.TREE, units=2)
        with pytest.raises(SimulationError):
            rig.container.remove_replicas(2)

    def test_oldest_input_entry_tracks_backlog(self, env):
        rig = Rig(env, units=1, queue_capacity=1, base=50.0)
        rig.feed(3, interval=0.1)
        env.run(until=10)
        oldest = rig.container.oldest_input_entry()
        assert oldest is not None and oldest < 1.0
        est = rig.container.latency_estimate(rig.container.latency.mean())
        assert est == pytest.approx(env.now - oldest)


class TestLocalManagerProtocols:
    def _managed(self, env, units=2, base=2.0):
        rig = Rig(env, units=units, base=base)
        gm_ep = rig.messenger.endpoint(rig.machine.nodes[8], "global-mgr")
        tracer = ControlPlaneTrace()
        manager = LocalManager(
            env, rig.messenger, rig.container,
            node=rig.container.replicas[0].node,
            scheduler=rig.scheduler, monitor_interval=1000,
            engine=ControlPlaneEngine(env, trace=tracer),
        )
        return rig, gm_ep, manager, tracer

    def _request(self, env, rig, gm_ep, mtype, payload):
        return rig.messenger.request(
            rig.machine.nodes[8], gm_ep, rig.container.name + ".cmgr",
            Message(mtype, "global-mgr", payload=payload),
        )

    def test_increase_spawns_replicas(self, env):
        rig, gm_ep, manager, tracer = self._managed(env)
        nodes = rig.scheduler.allocate(2, container_owner(rig.container.name))

        def gm(env):
            reply = yield self._request(
                env, rig, gm_ep, MessageType.INCREASE_REQUEST, {"nodes": nodes}
            )
            assert reply.payload["units"] == 4

        env.process(gm(env))
        env.run(until=60)
        assert rig.container.units == 4
        record = tracer.of("increase")[0]
        assert record.breakdown["intra_container"] > 0
        assert record.message_counts["intra_container"] > 0

    def test_increase_cost_grows_with_size(self, env):
        """Figure 4's shape: intra-container metadata exchange dominates and
        grows with the number of new replicas."""
        rig, gm_ep, manager, tracer = self._managed(env)
        n2 = rig.scheduler.allocate(1, container_owner(rig.container.name))
        n4 = rig.scheduler.allocate(4, container_owner(rig.container.name))

        def gm(env):
            yield self._request(env, rig, gm_ep, MessageType.INCREASE_REQUEST, {"nodes": n2})
            yield self._request(env, rig, gm_ep, MessageType.INCREASE_REQUEST, {"nodes": n4})

        env.process(gm(env))
        env.run(until=120)
        small, big = tracer.of("increase")
        assert big.breakdown["intra_container"] > small.breakdown["intra_container"]
        assert big.breakdown["intra_container"] > big.breakdown.get("manager", 0.0)

    def test_decrease_dominated_by_writer_pause(self, env):
        """Figure 5's shape."""
        rig, gm_ep, manager, tracer = self._managed(env, units=3)
        rig.feed(3, interval=0.1)

        def gm(env):
            yield env.timeout(1)
            reply = yield self._request(
                env, rig, gm_ep, MessageType.DECREASE_REQUEST, {"count": 1, "to": FREE}
            )
            assert len(reply.payload["nodes"]) == 1

        env.process(gm(env))
        env.run(until=60)
        record = tracer.of("decrease")[0]
        assert record.breakdown["writer_pause"] > record.breakdown.get("manager", 0.0)
        assert rig.container.units == 2
        # Writers resumed after the decrease.
        assert not rig.writer.paused

    def test_offline_writes_stranded_with_provenance(self, env):
        rig, gm_ep, manager, tracer = self._managed(env, units=1, base=30.0)
        rig.feed(4, interval=0.1)

        def gm(env):
            yield env.timeout(5)
            reply = yield self._request(env, rig, gm_ep, MessageType.OFFLINE_REQUEST, {})
            assert len(reply.payload["nodes"]) == 1

        env.process(gm(env))
        env.run(until=120)
        assert rig.container.offline
        assert rig.container.units == 0
        stranded = [f for f in rig.fs.files if f.attributes.get("stranded")]
        assert stranded  # the in-service / queued chunks landed on disk
        for record in stranded:
            assert record.attributes["provenance"] == []  # not yet processed

    def test_headroom_and_shortfall(self, env):
        rig, gm_ep, manager, tracer = self._managed(env, units=2, base=2.0)
        # base 2.0s at 1000 atoms; sustain interval 1.0 needs 2 units.
        assert manager.units_to_sustain(1.0) == 2
        assert manager.headroom(1.0) == 0
        assert manager.shortfall(1.0) == 0
        assert manager.shortfall(0.5) == 2  # needs 4
        assert manager.headroom(2.0) == 1  # needs 1


class TestInlineServiceOutcomes:
    """A replica's worker runs each chunk's service inline; the per-chunk
    service process it replaced is kept in :mod:`tests.oracles.replica`.
    Both must give the same exits, end-to-end records, shed records,
    telemetry events, node census and swallowed faults: on the fig7 and
    overload presets, and on a graceful decrease, an offline and a crash
    that each land while a chunk is in compute."""

    @staticmethod
    def _run(oracle, name, steps, act=None):
        from unittest import mock

        from repro.containers import Replica
        from repro.spec import build_preset
        from tests.oracles import replica as reference

        retires = []
        retire = Replica.retire

        def spy_retire(replica, hard=False):
            retires.append((replica.env.now, replica.name, hard,
                            replica.current_chunk is not None))
            return retire(replica, hard)

        patches = [mock.patch.object(Replica, "retire", spy_retire)]
        if oracle:
            patches += [mock.patch.object(cls, attr, fn) for cls, attr, fn in reference.PATCHES]
        for patch in patches:
            patch.start()
        try:
            env = Environment()
            pipe = build_preset(env, name, workload=dict(steps=steps))
            if act is not None:
                act(pipe)
            finished = pipe.run(settle=120)
        finally:
            for patch in patches:
                patch.stop()
        return dict(
            finished=finished, exits=pipe.exit_log, end_to_end=pipe.end_to_end,
            shed=pipe.fates.shed_records, unfated=pipe.fates.unfated(),
            telemetry=pipe.telemetry.events, census=pipe.node_census(), now=env.now,
            swallowed=env.swallowed_faults, retires=retires,
        ), env.events_processed

    def _same(self, name, steps, act=None):
        live, live_events = self._run(False, name, steps, act)
        oracle, oracle_events = self._run(True, name, steps, act)
        assert live == oracle
        assert live["finished"] and not live["unfated"]
        assert live_events < oracle_events
        return live

    @staticmethod
    def _when_in_service(replica_of, operation):
        """Run ``operation(pipe)`` at the first 10 ms tick after t=20 at
        which ``replica_of(pipe)`` has a chunk in compute."""
        def act(pipe):
            env = pipe.env

            def watch():
                yield env.timeout(20.0)
                replica = replica_of(pipe)
                while replica.current_chunk is None:
                    yield env.timeout(0.01)
                yield operation(pipe)

            env.process(watch())
        return act

    @pytest.mark.parametrize("name,steps", [("fig7", 6), ("overload", 12)])
    def test_preset(self, name, steps):
        self._same(name, steps)

    def test_graceful_decrease_mid_service(self):
        run = self._same("fig7", 6, self._when_in_service(
            lambda pipe: pipe.containers["csym"].replicas[-1],
            lambda pipe: pipe.global_manager.decrease("csym", 1)))
        # the departing replica was retired with its chunk in compute
        assert [(name, hard, busy) for _, name, hard, busy in run["retires"]] == [
            ("csym-r2", False, True)]

    def test_offline_mid_compute(self):
        run = self._same("fig7", 6, self._when_in_service(
            lambda pipe: pipe.containers["csym"].replicas[0],
            lambda pipe: pipe.global_manager.take_offline("csym")))
        assert ("csym-r0", True, True) in [r[1:] for r in run["retires"]]
        assert any(r.reason == "offline_prune" for r in run["shed"])

    def test_crash_mid_compute(self):
        from repro.faults import FaultPlan

        # crash csym-r1 halfway through its first service compute after t=20
        starts = []

        def probe(pipe):
            node = pipe.containers["csym"].replicas[1].node
            compute = node.compute

            def spy(seconds):
                if pipe.env.now > 20.0:
                    starts.append((pipe.env.now, seconds))
                return compute(seconds)

            node.compute = spy

        self._run(False, "fig7", 6, probe)
        start, seconds = starts[0]

        def crash(pipe):
            plan = FaultPlan(seed=1)
            victim = pipe.containers["csym"].replicas[1].node
            plan.node_crash(start + seconds / 2, victim.node_id)
            pipe.arm_faults(plan)

        run = self._same("fig7", 6, crash)
        assert [r[1:] for r in run["retires"]] == [("csym-r1", True, True)]
