"""Edge-case tests across the stack: teardown races, re-dispatch skips,
resume-after-pull, scheduler accounting, protocol corner cases."""

import itertools

import pytest

from repro.simkernel import Environment, SimulationError, Store
from repro.cluster import Machine
from repro.data import DataChunk
from repro.datatap import (
    DataTapLink,
    DataTapReader,
    DataTapWriter,
    NoPullScheduler,
    PullScheduler,
)
from repro.evpath import Messenger


#: chunk ids for chunks made outside a pipeline run
_ids = itertools.count()


def chunk(ts=0, nbytes=1e6):
    return DataChunk(timestep=ts, nbytes=nbytes, natoms=100, chunk_id=next(_ids))


def rig(env, machine, messenger, n_readers=2, queue_capacity=2):
    link = DataTapLink(env, messenger, "edge-link")
    writer = DataTapWriter(env, messenger, machine.nodes[0], name="ew0")
    link.add_writer(writer)
    readers, queues = [], []
    for i in range(n_readers):
        q = Store(env, capacity=queue_capacity, name=f"eq{i}")
        r = DataTapReader(env, messenger, machine.nodes[4 + i], f"er{i}", q,
                          NoPullScheduler(env))
        link.add_reader(r)
        readers.append(r)
        queues.append(q)
    return link, writer, readers, queues


class TestReaderTeardownRaces:
    def test_stop_with_inflight_pull_returns_metadata(self, env, machine, messenger):
        """A reader stopped mid-pull hands the metadata back; the chunk is
        still in the writer's buffer and a surviving reader gets it."""
        link, writer, readers, queues = rig(env, machine, messenger,
                                            n_readers=2, queue_capacity=1)

        def scenario(env):
            # Fill reader 0's queue so its next pull blocks on reservation.
            yield writer.write(chunk(0))
            yield writer.write(chunk(1))  # goes to reader 1
            yield writer.write(chunk(2))  # reader 0 again; blocks (q full)
            yield env.timeout(1)
            yield link.pause_writers()
            link.remove_reader(readers[0])
            yield link.resume_writers()

        env.process(scenario(env))
        env.run(until=30)
        # All three chunks were delivered somewhere; none lost or stuck.
        delivered = queues[0].size + queues[1].size
        assert delivered + len(writer.buffer) == 3
        assert len(writer.buffer) == 0 or queues[1].full

    def test_redispatch_skips_already_pulled_chunk(self, env, machine, messenger):
        """If a pull completed despite the teardown, the re-dispatched
        metadata is dropped instead of double-delivering."""
        link, writer, readers, queues = rig(env, machine, messenger,
                                            n_readers=2, queue_capacity=4)

        def scenario(env):
            for ts in range(4):
                yield writer.write(chunk(ts))
            yield env.timeout(2)  # everything pulled already
            yield link.pause_writers()
            link.remove_reader(readers[0])
            yield link.resume_writers()

        env.process(scenario(env))
        env.run(until=30)
        total = queues[0].size + queues[1].size
        assert total == 4  # no duplicates
        assert link.redispatched == 0

    def test_resume_skips_chunks_pulled_while_paused(self, env, machine, messenger):
        """Deferred metadata for chunks that were re-dispatched and pulled
        during the pause must not be re-pushed on resume."""
        link, writer, readers, queues = rig(env, machine, messenger,
                                            n_readers=1, queue_capacity=8)

        def scenario(env):
            yield link.pause_writers()
            yield writer.write(chunk(0))  # deferred metadata
            # Simulate a management path delivering it directly: drop it
            # from the buffer as if pulled.
            writer.buffer.release(writer.buffer.get(
                list(writer.buffer._chunks)[0]).chunk_id)
            yield link.resume_writers()
            yield env.timeout(2)

        env.process(scenario(env))
        env.run(until=30)
        assert queues[0].size == 0  # nothing double-delivered


class TestSchedulerAccounting:
    def test_pull_wait_accrues_under_contention(self, env):
        sched = PullScheduler(env, max_concurrent_pulls=1)

        def puller(env):
            token = yield sched.admit()
            yield env.timeout(2)
            sched.release(token)

        for _ in range(3):
            env.process(puller(env))
        env.run()
        assert sched.total_wait == pytest.approx(2 + 4)

    def test_in_flight_and_queued_counters(self, env):
        sched = PullScheduler(env, max_concurrent_pulls=1)
        snapshots = []

        def holder(env):
            token = yield sched.admit()
            yield env.timeout(5)
            sched.release(token)

        def prober(env):
            yield env.timeout(1)
            env.process(holder(env))  # queued behind the first
            yield env.timeout(1)
            snapshots.append((sched.in_flight, sched.queued))

        env.process(holder(env))
        env.process(prober(env))
        env.run()
        assert snapshots == [(1, 1)]

    def test_validation(self, env):
        with pytest.raises(ValueError):
            PullScheduler(env, max_concurrent_pulls=0)


class TestLinkEdgeCases:
    def test_writer_without_readers_raises_on_push(self, env, machine, messenger):
        link = DataTapLink(env, messenger, "empty")
        writer = DataTapWriter(env, messenger, machine.nodes[0], name="lonely")
        link.add_writer(writer)

        def scenario(env):
            yield writer.write(chunk())
            yield env.timeout(1)

        env.process(scenario(env))
        with pytest.raises(SimulationError, match="no readers"):
            env.run(until=10)

    def test_unknown_writer_lookup(self, env, machine, messenger):
        link = DataTapLink(env, messenger, "l")
        with pytest.raises(SimulationError):
            link.writer_by_name("ghost")

    def test_pause_empty_link_is_noop(self, env, machine, messenger):
        link = DataTapLink(env, messenger, "bare")
        done = []

        def scenario(env):
            elapsed = yield link.pause_writers()
            done.append(elapsed)
            yield link.resume_writers()
            yield link.drain_readers()

        env.process(scenario(env))
        env.run()
        assert done == [0.0]

    def test_double_pause_is_idempotent(self, env, machine, messenger):
        link, writer, readers, queues = rig(env, machine, messenger)

        def scenario(env):
            yield link.pause_writers()
            yield link.pause_writers()
            assert writer.paused
            yield link.resume_writers()
            assert not writer.paused

        env.process(scenario(env))
        env.run(until=10)


class TestWriterEdgeCases:
    def test_pause_count_tracks(self, env, machine, messenger):
        link, writer, readers, queues = rig(env, machine, messenger)

        def scenario(env):
            yield writer.pause()
            yield writer.resume()
            yield writer.pause()

        env.process(scenario(env))
        env.run(until=10)
        assert writer.pause_count == 2

    def test_resume_unpaused_writer_is_noop(self, env, machine, messenger):
        link, writer, readers, queues = rig(env, machine, messenger)
        results = []

        def scenario(env):
            result = yield writer.resume()
            results.append(result)

        env.process(scenario(env))
        env.run(until=10)
        assert results == [False]

    def test_backlog_counts_deferred_metadata(self, env, machine, messenger):
        link, writer, readers, queues = rig(env, machine, messenger)

        def scenario(env):
            yield writer.pause()
            yield writer.write(chunk(0))
            yield writer.write(chunk(1))
            assert writer.backlog == 2

        env.process(scenario(env))
        env.run(until=10)
