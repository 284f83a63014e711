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

    def test_blocking_insert_waits_for_space(self, env, machine):
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=1000)
        first = chunk(nbytes=800)
        times = []

        def producer(env):
            yield buf.insert(first)
            times.append(env.now)
            yield buf.insert(chunk(nbytes=800))
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

    def test_space_waiter_wakeup_order_concurrent_producers(self, env, machine):
        # Three producers block on a full buffer; each release wakes all
        # waiters and they re-contend in arrival order, so space is granted
        # first-blocked-first-served, one producer per release.
        buf = StagingBuffer(env, machine.nodes[0], capacity_bytes=1000)
        first = chunk(nbytes=900)
        buf.try_insert(first)
        admitted = []

        def producer(env, tag, start):
            yield env.timeout(start)
            mine = chunk(nbytes=600)
            yield buf.insert(mine)
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
