"""Unit tests for the DataTap transport: buffers, writers, readers, links."""

import itertools

import pytest

from repro.simkernel import Environment, SimulationError, Store
from repro.data import DataChunk
from repro.datatap import (
    BufferFull,
    DataTapLink,
    DataTapReader,
    DataTapWriter,
    NoPullScheduler,
    PullScheduler,
    StagingBuffer,
)
from repro.datatap.writer import PAUSE_FLUSH_DELAY


#: chunk ids for chunks made outside a pipeline run
_ids = itertools.count()


def chunk(ts=0, nbytes=1000, natoms=10):
    return DataChunk(timestep=ts, nbytes=nbytes, natoms=natoms, chunk_id=next(_ids))


def paused_writer(env, machine, messenger, capacity_bytes):
    """A writer whose metadata stays parked by a pause, so a chunk leaves
    its buffer only when the test releases it."""
    buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=capacity_bytes)
    writer = DataTapWriter(env, messenger, machine.nodes[0], buffer=buf, name="w")
    DataTapLink(env, messenger, "held").add_writer(writer)
    writer.pause()
    return writer, buf


class TestStagingBuffer:
    def test_insert_reserves_node_memory(self, env, machine):
        node = machine.nodes[0]
        buf = StagingBuffer(env, node, capacity_bytes=5000)
        assert buf.try_insert(chunk(nbytes=2000))
        assert node.memory_used == 2000
        assert buf.occupancy == pytest.approx(0.4)

    def test_release_frees_memory(self, env, machine):
        node = machine.nodes[0]
        buf = StagingBuffer(env, node, capacity_bytes=5000)
        c = chunk(nbytes=2000)
        buf.try_insert(c)
        buf.release(c.chunk_id)
        assert node.memory_used == 0
        assert len(buf) == 0

    def test_full_buffer_rejects_nonblocking(self, env, machine):
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=1000)
        assert buf.try_insert(chunk(nbytes=800))
        assert not buf.try_insert(chunk(nbytes=300))

    def test_oversized_chunk_raises(self, env, machine):
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=1000)
        with pytest.raises(BufferFull):
            buf.try_insert(chunk(nbytes=2000))

    def test_blocking_insert_waits_for_space(self, env, machine, messenger):
        writer, buf = paused_writer(env, machine, messenger, capacity_bytes=1000)
        first = chunk(nbytes=800)
        times = []

        def producer(env):
            yield writer.write(first)
            times.append(env.now)
            yield writer.write(chunk(nbytes=800))
            times.append(env.now)

        def releaser(env):
            yield env.timeout(5)
            buf.release(first.chunk_id)

        env.process(producer(env))
        env.process(releaser(env))
        env.run()
        assert times == [0.0, 5.0]

    def test_release_unknown_raises(self, env, machine):
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=1000)
        with pytest.raises(SimulationError):
            buf.release(12345)

    def test_high_water_tracking(self, env, machine):
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=10000)
        c1, c2 = chunk(nbytes=3000), chunk(nbytes=4000)
        buf.try_insert(c1)
        buf.try_insert(c2)
        buf.release(c1.chunk_id)
        assert buf.high_water_bytes == 7000

    def test_oversized_raises_even_when_empty(self, env, machine):
        # BufferFull (not False) distinguishes "will never fit" from
        # "full right now" — a producer must not wait on an impossible insert.
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=1000)
        with pytest.raises(BufferFull):
            buf.try_insert(chunk(nbytes=1001))
        assert len(buf) == 0 and buf.used_bytes == 0

    def test_space_waiter_wakeup_order_concurrent_producers(self, env, machine, messenger):
        # Three producers block on a full buffer; each release wakes all
        # waiters and they re-contend in arrival order, so space is granted
        # first-blocked-first-served, one producer per release.
        writer, buf = paused_writer(env, machine, messenger, capacity_bytes=1000)
        first = chunk(nbytes=900)
        buf.try_insert(first)
        admitted = []

        def producer(env, tag, start):
            yield env.timeout(start)
            mine = chunk(nbytes=600)
            yield writer.write(mine)
            admitted.append((env.now, tag))
            # hold the space until explicitly released below
            yield env.timeout(100)

        def releaser(env):
            yield env.timeout(5)
            buf.release(first.chunk_id)

        procs = [env.process(producer(env, tag, start))
                 for tag, start in (("a", 1), ("b", 2), ("c", 3))]
        env.process(releaser(env))
        env.run(until=6)
        # only one 600 B chunk fits in the 1000 B buffer: the first blocked
        # producer wins, the later two stay parked
        assert admitted == [(5.0, "a")]
        winner = next(cid for cid in buf._chunks)
        buf.release(winner)
        env.run(until=7)
        assert [tag for _, tag in admitted] == ["a", "b"]
        winner = next(cid for cid in buf._chunks)
        buf.release(winner)
        env.run(until=8)
        assert [tag for _, tag in admitted] == ["a", "b", "c"]
        for proc in procs:
            proc.interrupt("test done")

    def test_insert_and_eviction_counters(self, env, machine):
        from repro.perf.registry import REGISTRY

        before_in = REGISTRY.counter("datatap.buffer_inserts")
        before_out = REGISTRY.counter("datatap.buffer_evictions")
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=5000)
        c1, c2 = chunk(nbytes=1000), chunk(nbytes=2000)
        buf.try_insert(c1)
        buf.try_insert(c2)
        buf.release(c1.chunk_id)
        assert REGISTRY.counter("datatap.buffer_inserts") == before_in + 2
        assert REGISTRY.counter("datatap.buffer_evictions") == before_out + 1


def build_link(env, machine, messenger, n_readers=2, queue_capacity=4):
    link = DataTapLink(env, messenger, "test-link")
    writer = DataTapWriter(env, messenger, machine.nodes[0], name="w0")
    link.add_writer(writer)
    queues, readers = [], []
    for i in range(n_readers):
        q = Store(env, capacity=queue_capacity, name=f"q{i}")
        r = DataTapReader(env, messenger, machine.nodes[4 + i], f"r{i}", q,
                          NoPullScheduler(env))
        link.add_reader(r)
        queues.append(q)
        readers.append(r)
    return link, writer, readers, queues


class TestWriterReader:
    def test_round_robin_distribution(self, env, machine, messenger):
        link, writer, readers, queues = build_link(env, machine, messenger)
        got = {0: [], 1: []}

        def producer(env):
            for ts in range(4):
                yield writer.write(chunk(ts=ts, nbytes=1e6))
                yield env.timeout(1)

        def consumer(env, idx):
            while True:
                c = yield queues[idx].get()
                got[idx].append(c.timestep)

        env.process(producer(env))
        env.process(consumer(env, 0))
        env.process(consumer(env, 1))
        env.run(until=30)
        assert got[0] == [0, 2]
        assert got[1] == [1, 3]

    def test_write_is_asynchronous(self, env, machine, messenger):
        """The producer returns at buffering time, not delivery time."""
        link, writer, readers, queues = build_link(env, machine, messenger)
        writer_done = []

        def producer(env):
            yield writer.write(chunk(nbytes=1e9))  # ~0.6 s to move
            writer_done.append(env.now)

        env.process(producer(env))
        env.run(until=30)
        assert writer_done[0] < 0.01

    def test_pull_frees_writer_buffer(self, env, machine, messenger):
        link, writer, readers, queues = build_link(env, machine, messenger)

        def producer(env):
            yield writer.write(chunk(nbytes=1e6))

        env.process(producer(env))
        env.run(until=30)
        assert len(writer.buffer) == 0
        assert readers[0].chunks_pulled == 1

    def test_backpressure_limits_pulls(self, env, machine, messenger):
        """With a full output queue, chunks stay in the writer's buffer."""
        link, writer, readers, queues = build_link(
            env, machine, messenger, n_readers=1, queue_capacity=1
        )

        def producer(env):
            for ts in range(5):
                yield writer.write(chunk(ts=ts, nbytes=1e6))

        env.process(producer(env))
        env.run(until=10)
        # 1 in the queue, 1 reserved/in-flight at most; the rest buffered.
        assert len(writer.buffer) >= 3

    def test_pause_stops_metadata_flow(self, env, machine, messenger):
        link, writer, readers, queues = build_link(env, machine, messenger, n_readers=1)

        def scenario(env):
            yield link.pause_writers()
            yield writer.write(chunk(ts=0, nbytes=1e6))
            yield env.timeout(5)
            assert queues[0].size == 0  # nothing delivered while paused
            assert writer.backlog == 1
            yield link.resume_writers()
            yield env.timeout(5)
            assert queues[0].size == 1

        env.process(scenario(env))
        env.run(until=30)

    def test_pause_waits_for_inflight_metadata(self, env, machine, messenger):
        link, writer, readers, queues = build_link(env, machine, messenger, n_readers=1)
        done = []

        def scenario(env):
            yield writer.write(chunk(nbytes=1e6))
            elapsed = yield link.pause_writers()
            done.append(elapsed)

        env.process(scenario(env))
        env.run(until=30)
        # flush delay is charged even when metadata already drained
        assert done[0] >= PAUSE_FLUSH_DELAY

    def test_write_without_link_raises(self, env, machine, messenger):
        writer = DataTapWriter(env, messenger, machine.nodes[0], name="orphan")

        def proc(env):
            yield writer.write(chunk())

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()


class TestLinkMembership:
    def test_remove_reader_requires_pause(self, env, machine, messenger):
        link, writer, readers, queues = build_link(env, machine, messenger)
        with pytest.raises(SimulationError):
            link.remove_reader(readers[0])

    def test_remove_reader_redispatches(self, env, machine, messenger):
        link, writer, readers, queues = build_link(
            env, machine, messenger, n_readers=2, queue_capacity=1
        )
        total = 6

        def producer(env):
            for ts in range(total):
                yield writer.write(chunk(ts=ts, nbytes=1e6))

        consumed = []

        def consumer(env, idx):
            while True:
                c = yield queues[idx].get()
                consumed.append(c.timestep)
                yield env.timeout(2)

        def controller(env):
            yield env.timeout(3)
            yield link.pause_writers()
            link.remove_reader(readers[1])
            yield link.resume_writers()

        env.process(producer(env))
        env.process(consumer(env, 0))
        env.process(consumer(env, 1))
        env.process(controller(env))
        env.run(until=60)
        assert sorted(consumed) == list(range(total))  # no timestep lost

    def test_remove_last_reader_with_pending_raises(self, env, machine, messenger):
        link, writer, readers, queues = build_link(
            env, machine, messenger, n_readers=1, queue_capacity=1
        )

        def scenario(env):
            for ts in range(4):
                yield writer.write(chunk(ts=ts, nbytes=1e6))
            yield env.timeout(1)
            yield link.pause_writers()
            link.remove_reader(readers[0])

        env.process(scenario(env))
        with pytest.raises(SimulationError, match="strand"):
            env.run(until=30)

    def test_duplicate_membership_rejected(self, env, machine, messenger):
        link, writer, readers, queues = build_link(env, machine, messenger)
        with pytest.raises(SimulationError):
            link.add_writer(writer)
        with pytest.raises(SimulationError):
            link.add_reader(readers[0])

    def test_drain_buffer_for_offline_flush(self, env, machine, messenger):
        link, writer, readers, queues = build_link(
            env, machine, messenger, n_readers=1, queue_capacity=1
        )

        def scenario(env):
            for ts in range(5):
                yield writer.write(chunk(ts=ts, nbytes=1e6))
            yield env.timeout(1)
            yield link.pause_writers()
            drained = writer.drain_buffer()
            assert len(drained) >= 3
            assert len(writer.buffer) == 0
            assert writer.backlog == 0

        env.process(scenario(env))
        env.run(until=30)


class TestPullScheduler:
    def test_concurrency_bound(self, env):
        sched = PullScheduler(env, max_concurrent_pulls=2)
        active = []
        peak = [0]

        def puller(env):
            token = yield sched.admit()
            active.append(1)
            peak[0] = max(peak[0], len(active))
            yield env.timeout(1)
            active.pop()
            sched.release(token)

        for _ in range(6):
            env.process(puller(env))
        env.run()
        assert peak[0] == 2
        assert sched.pulls_admitted == 6

    def test_defer_during_output_phase(self, env):
        sched = PullScheduler(env, max_concurrent_pulls=4, defer_during_output=True)
        admitted = []

        def puller(env):
            yield env.timeout(1)
            token = yield sched.admit()
            admitted.append(env.now)
            sched.release(token)

        def app(env):
            sched.output_phase_begin()
            yield env.timeout(5)
            sched.output_phase_end()

        env.process(app(env))
        env.process(puller(env))
        env.run()
        assert admitted == [5.0]

    def test_unbalanced_phase_end_raises(self, env):
        sched = PullScheduler(env)
        with pytest.raises(SimulationError):
            sched.output_phase_end()

    def test_nested_output_phases(self, env):
        sched = PullScheduler(env, defer_during_output=True)
        sched.output_phase_begin()
        sched.output_phase_begin()
        sched.output_phase_end()
        assert sched._phase_clear is not None
        sched.output_phase_end()
        assert sched._phase_clear is None


class TestChunkPathOutcomes:
    """The per-chunk walkers (writes, metadata pushes, pull admission, the
    reader loop, computes, emits) against the process generators kept in
    :mod:`tests.oracles.datatap`.

    The walkers skip the ``Initialize`` and completion events of the
    processes they replace, so they are outcome-identical, not
    schedule-identical: every chunk is written, pulled, released and
    consumed at the same time and in the same order, and the same metadata
    is cancelled, the same sends are lost and the same duplicates dropped."""

    @staticmethod
    def _run(oracle, scenario):
        from unittest import mock

        from repro.cluster import Machine
        from repro.evpath import Messenger
        from tests.oracles import datatap as reference

        env = Environment()
        machine = Machine(env, num_nodes=12, cores_per_node=1)
        messenger = Messenger(env, machine.network)
        pulled, released = [], []
        fulfill, release = Store.fulfill, StagingBuffer.release

        def spy_fulfill(store, reservation, item):
            pulled.append((round(env.now, 12), store.name, item.chunk_id))
            return fulfill(store, reservation, item)

        def spy_release(buf, chunk_id):
            released.append((round(env.now, 12), buf.name, chunk_id))
            return release(buf, chunk_id)

        patches = [mock.patch.object(Store, "fulfill", spy_fulfill),
                   mock.patch.object(StagingBuffer, "release", spy_release)]
        if oracle:
            patches += [mock.patch.object(cls, name, fn)
                        for cls, name, fn in reference.PATCHES]
        for patch in patches:
            patch.start()
        try:
            rig = _Rig(env, machine, messenger)
            scenario(rig)
            try:
                env.run(until=60)
                raised = None
            except Exception as error:  # an unwatched non-fault failure
                raised = (type(error).__name__, str(error))
        finally:
            for patch in patches:
                patch.stop()
        return dict(
            pulled=sorted(pulled), released=sorted(released), raised=raised,
            log=sorted(rig.log), consumed=rig.consumed,
            cancelled={r.name: sorted(m.payload["chunk_id"] for m in r.cancelled_meta)
                       for r in rig.readers},
            swallowed=env.swallowed_faults,
            dup_dropped=rig.link.dup_dropped,
            admitted=[(s.pulls_admitted, round(s.total_wait, 12)) for s in rig.schedulers],
            slots=[(s.in_flight, s.queued) for s in rig.schedulers],
            buffered=sorted(rig.writer.buffer._chunks),
            events=env.events_processed,
        )

    @staticmethod
    def _assert_same(scenario, skip=("events",)):
        fast = TestChunkPathOutcomes._run(False, scenario)
        slow = TestChunkPathOutcomes._run(True, scenario)
        assert fast["events"] < slow["events"]  # the walkers really ran
        assert ({k: v for k, v in fast.items() if k not in skip}
                == {k: v for k, v in slow.items() if k not in skip})
        return fast, slow

    def test_full_buffer(self):
        def scenario(rig):
            rig.build(readers=1, queue_capacity=1, buffer_bytes=2.5e6, service=0.5)
            rig.produce(8)

        out, _ = self._assert_same(scenario)
        # the producer really blocked: later writes returned after releases
        assert max(t for t, tag, *_ in out["log"] if tag == "written") > 1.0

    def test_pause_with_metadata_in_flight(self):
        def scenario(rig):
            rig.build(readers=2, service=0.1)
            rig.produce(6, gap=0.02)

            def control(env):
                yield env.timeout(0.02)  # the second write's push is in flight
                elapsed = yield rig.link.pause_writers()
                rig.log.append((round(env.now, 12), "paused", round(elapsed, 12)))
                yield env.timeout(0.5)
                yield rig.link.resume_writers()
                rig.log.append((round(env.now, 12), "resumed"))

            rig.env.process(control(rig.env))

        out, _ = self._assert_same(scenario)
        assert any(tag == "paused" for _, tag, *_ in out["log"])

    def test_stop_mid_pull(self):
        def scenario(rig):
            rig.build(readers=2, nbytes=2e8)
            rig.produce(4)

            def control(env):
                yield env.timeout(0.05)  # both readers are mid-GET
                yield rig.link.pause_writers()
                rig.link.remove_reader(rig.readers[1])
                yield rig.link.resume_writers()

            rig.env.process(control(rig.env))

        out, _ = self._assert_same(scenario)
        assert out["raised"] is None and out["cancelled"]["r1"]
        assert sorted(c for log in out["consumed"].values() for _, c in log) == [0, 1, 2, 3]

    @pytest.mark.parametrize("how", ["stop", "crash"])
    def test_reader_gone_while_admission_queued(self, how):
        def scenario(rig):
            rig.build(readers=2, nbytes=2e8,
                      scheduler=PullScheduler(rig.env, max_concurrent_pulls=1))
            rig.produce(4)
            gone = rig.readers[1]

            def control(env):
                yield env.timeout(0.01)  # r0 holds the slot mid-GET, r1 queues
                if how == "crash":
                    gone.crash()
                    return
                yield rig.link.pause_writers()
                rig.link.remove_reader(gone)
                yield rig.link.resume_writers()

            rig.env.process(control(rig.env))

        out, _ = self._assert_same(scenario)
        assert out["slots"] == [(0, 0)]  # the queued admission was withdrawn
        if how == "stop":
            assert out["cancelled"]["r1"] and out["buffered"] == []

    def test_stop_during_duplicate_drop(self):
        from repro.simkernel import schedule_step
        from repro.simkernel.events import URGENT

        def scenario(rig):
            rig.build(readers=1)
            chunks = rig.produce(1)
            reader = rig.readers[0]
            drop = reader._drop_duplicate

            def drop_then_stop():
                drop()
                # stop the reader before its zero-delay drop step pops
                schedule_step(rig.env, lambda _: reader.stop(), URGENT)

            reader._drop_duplicate = drop_then_stop

            def duplicate(env):
                yield env.timeout(1.0)  # long after the chunk was released
                rig.writer.spawn_metadata_push(chunks[0])

            rig.env.process(duplicate(rig.env))

        fast, slow = self._assert_same(scenario, skip=("events", "raised"))
        assert fast["dup_dropped"] == 1
        # The child pull process the reader loop interrupted died of the
        # Interrupt, unwatched, and the run raised it; the walker's pull is
        # the loop's own frame, so the stop ends it quietly.
        assert slow["raised"] == ("Interrupt", "teardown")
        assert fast["raised"] is None

    def test_reader_crash_with_retained_custody(self):
        def scenario(rig):
            rig.build(readers=2, nbytes=2e8, retain=True, service=0.2)
            rig.produce(6, gap=0.01)
            dead = rig.readers[0]

            def recovery(env):
                yield env.timeout(0.15)  # mid-GET
                dead.node.fail()
                dead.crash()
                yield env.timeout(0.5)
                rig.writer.redeliver_unacked(dead.name)
                yield rig.link.pause_writers()
                rig.link.remove_reader(dead)
                yield rig.link.resume_writers()

            rig.env.process(recovery(rig.env))

        out, _ = self._assert_same(scenario)
        assert out["dup_dropped"] > 0  # redelivery raced surviving copies
        delivered = {c for log in out["consumed"].values() for _, c in log}
        assert delivered == set(range(6))

    def test_failed_metadata_send(self):
        def scenario(rig):
            rig.build(readers=2)
            rig.readers[1].node.fail()  # every push to r1 is lost
            rig.produce(4, gap=0.1)

        out, _ = self._assert_same(scenario)
        assert out["swallowed"] == 2
        assert out["buffered"] == [1, 3]

    def test_contended_pull_tokens_and_cores(self):
        def scenario(rig):
            sched = PullScheduler(rig.env, max_concurrent_pulls=1)
            # three consumers share one single-core node
            rig.build(readers=3, scheduler=sched, nbytes=5e7, service=0.05,
                      compute_node=11)
            rig.produce(9)

        out, _ = self._assert_same(scenario)
        assert out["admitted"][0][0] == 9 and out["admitted"][0][1] > 0

    def test_defer_during_output(self):
        def scenario(rig):
            sched = PullScheduler(rig.env, max_concurrent_pulls=2,
                                  defer_during_output=True)
            rig.build(readers=2, scheduler=sched, service=0.05)

            def app(env):
                for step in range(4):
                    sched.output_phase_begin()
                    yield env.all_of([rig.writer.write(rig.chunk(step))
                                      for _ in range(2)])
                    yield env.timeout(0.2)
                    sched.output_phase_end()
                    yield env.timeout(0.3)

            rig.env.process(app(rig.env))

        out, _ = self._assert_same(scenario)
        assert out["admitted"][0][0] == 8 and out["admitted"][0][1] > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_mix(self, seed):
        import random

        def scenario(rig):
            rng = random.Random(seed)
            sched = (PullScheduler(rig.env, max_concurrent_pulls=rng.randint(1, 3),
                                   defer_during_output=rng.random() < 0.5)
                     if rng.random() < 0.7 else None)
            rig.build(readers=rng.randint(1, 3), queue_capacity=rng.randint(1, 3),
                      buffer_bytes=rng.choice((None, 3.5e7)),
                      nbytes=rng.choice((1e6, 1e7, 1e8)),
                      retain=rng.random() < 0.5, scheduler=sched,
                      service=rng.choice((0.0, 0.05, 0.3)),
                      compute_node=rng.choice((None, 11)))
            app_phases = sched is not None and sched.defer_during_output
            rig.produce(rng.randint(4, 12), gap=rng.choice((0.0, 0.01, 0.1)),
                        phases=sched if app_phases else None)
            pause_at = rng.uniform(0.0, 1.0)

            def control(env):
                yield env.timeout(pause_at)
                yield rig.link.pause_writers()
                yield env.timeout(rng.uniform(0.0, 0.3))
                yield rig.link.resume_writers()

            rig.env.process(control(rig.env))

        self._assert_same(scenario)


class TestPullSlotWithdrawn:
    """A reader stopped while its pull admission is pending hands the slot
    back to the scheduler.  (``TestChunkPathOutcomes`` also runs a queued
    admission's withdrawal against the process reader.)"""

    @staticmethod
    def _rig():
        from repro.cluster import Machine
        from repro.evpath import Messenger

        env = Environment()
        machine = Machine(env, num_nodes=12, cores_per_node=1)
        rig = _Rig(env, machine, Messenger(env, machine.network))
        return rig, PullScheduler(env, max_concurrent_pulls=1)

    def test_reader_removed_while_admission_queued(self):
        rig, sched = self._rig()
        rig.build(readers=2, scheduler=sched, nbytes=2e8)
        rig.produce(4)
        queued_at_removal = []

        def control(env):
            yield env.timeout(0.01)  # r0 holds the slot mid-GET, r1 queues
            yield rig.link.pause_writers()
            queued_at_removal.append(sched.queued)
            rig.link.remove_reader(rig.readers[1])
            yield rig.link.resume_writers()

        rig.env.process(control(rig.env))
        rig.env.run(until=30)
        assert queued_at_removal == [1]
        assert (sched.in_flight, sched.queued) == (0, 0)
        assert rig.readers[0].chunks_pulled == 4
        assert not rig.writer.buffer._chunks

    def test_reader_stopped_between_grant_and_resume(self):
        from repro.simkernel import schedule_step
        from repro.simkernel.events import NORMAL

        rig, sched = self._rig()
        held = sched.admit().value  # the only slot, taken up front
        rig.build(readers=1, scheduler=sched)
        rig.produce(1)
        reader = rig.readers[0]

        def control(env):
            yield env.timeout(1.0)  # the reader's admission queues behind it
            assert sched.queued == 1
            sched.release(held)  # grants the queued admission...
            # ...and the reader stops once the admission has returned the
            # slot but before the reader resumes with it
            schedule_step(env, lambda _: reader.crash(), NORMAL)

        rig.env.process(control(rig.env))
        rig.env.run(until=30)
        assert (sched.in_flight, sched.queued) == (0, 0)
        assert reader.chunks_pulled == 0


class TestPipelineOutcomes:
    """Whole presets through the walkers and through the process generators
    of :mod:`tests.oracles.datatap`: the emit and hash paths of a replica's
    service, retained custody (fig7), credits and shedding (overload)."""

    @staticmethod
    def _run(oracle, name, steps):
        from unittest import mock

        from repro.spec import build_preset
        from tests.oracles import datatap as reference

        patches = ([mock.patch.object(cls, attr, fn) for cls, attr, fn in reference.PATCHES]
                   if oracle else [])
        for patch in patches:
            patch.start()
        try:
            env = Environment()
            pipe = build_preset(env, name, workload=dict(steps=steps))
            finished = pipe.run(settle=120)
        finally:
            for patch in patches:
                patch.stop()
        return dict(
            finished=finished, unfated=pipe.fates.unfated(),
            exits=pipe.exit_log, end_to_end=pipe.end_to_end,
            shed=pipe.fates.shed_records, telemetry=pipe.telemetry.events,
            census=pipe.node_census(), files=pipe.fs.files, now=env.now,
            swallowed=env.swallowed_faults,
        ), env.events_processed

    @pytest.mark.parametrize("name,steps", [("fig7", 6), ("overload", 12)])
    def test_preset_matches_process_path(self, name, steps):
        fast, fast_events = self._run(False, name, steps)
        slow, slow_events = self._run(True, name, steps)
        assert fast == slow
        # every timestep has its fate, on both paths
        assert fast["finished"] and not fast["unfated"]
        assert fast["exits"] and fast_events < slow_events


class _Rig:
    """One writer on node 0 feeding readers on nodes 2.., each drained by a
    consumer; ``log`` notes when writes return.  A scenario calls
    :meth:`build` first."""

    def __init__(self, env, machine, messenger):
        self.env = env
        self.machine = machine
        self.messenger = messenger
        self.readers, self.schedulers, self.log = [], [], []
        self.consumed = {}

    def build(self, readers=2, queue_capacity=2, buffer_bytes=None, nbytes=1e6,
              retain=False, scheduler=None, service=0.0, compute_node=None):
        env, machine = self.env, self.machine
        self.nbytes = nbytes
        self.link = DataTapLink(env, self.messenger, "dl")
        node = machine.nodes[0]
        if buffer_bytes is None:
            buffer_bytes = node.memory_free / 2
        buf = StagingBuffer(env, node, capacity_bytes=buffer_bytes, name="w0.buf")
        self.writer = DataTapWriter(env, self.messenger, node, buffer=buf, name="w0",
                                    retain_until_processed=retain)
        self.link.add_writer(self.writer)
        sched = scheduler if scheduler is not None else NoPullScheduler(env)
        if scheduler is not None:
            self.schedulers.append(scheduler)
        for i in range(readers):
            queue = Store(env, capacity=queue_capacity, name=f"q{i}")
            reader = DataTapReader(env, self.messenger, machine.nodes[2 + i], f"r{i}",
                                   queue, sched)
            self.link.add_reader(reader)
            self.readers.append(reader)
            self.consumed[reader.name] = []
            where = reader.node if compute_node is None else machine.nodes[compute_node]
            env.process(self._consume(reader, queue, where, service))

    def chunk(self, step):
        return DataChunk(timestep=step, nbytes=self.nbytes, natoms=1,
                         chunk_id=next(self.env.chunk_ids))

    def produce(self, count, gap=0.0, phases=None):
        chunks = [self.chunk(step) for step in range(count)]

        def producer(env):
            for c in chunks:
                if phases is not None:
                    phases.output_phase_begin()
                yield self.writer.write(c)
                self.log.append((round(env.now, 12), "written", c.chunk_id))
                if phases is not None:
                    phases.output_phase_end()
                if gap:
                    yield env.timeout(gap)

        self.env.process(producer(self.env))
        return chunks

    def _consume(self, reader, queue, node, service):
        env = self.env
        while True:
            c = yield queue.get()
            self.consumed[reader.name].append((round(env.now, 12), c.chunk_id))
            if service:
                yield node.compute(service)
            if self.writer.retain_until_processed:
                self.writer.on_processed(c.chunk_id)
