"""Unit tests for machine partitioning and the batch scheduler."""

import numpy as np
import pytest

from repro.simkernel import Environment, SimulationError
from repro.cluster import AprunModel, BatchScheduler, Machine, franklin, redsky
from repro.perf import REGISTRY


class TestPartitioning:
    def test_partition_carves_nodes(self, env):
        m = Machine(env, num_nodes=10)
        sim = m.partition("sim", 6)
        staging = m.partition("staging", 3)
        assert len(sim) == 6
        assert len(staging) == 3
        assert m.unallocated == 1
        assert {n.node_id for n in sim}.isdisjoint({n.node_id for n in staging})

    def test_duplicate_partition_rejected(self, env):
        m = Machine(env, num_nodes=4)
        m.partition("a", 2)
        with pytest.raises(SimulationError):
            m.partition("a", 1)

    def test_over_allocation_rejected(self, env):
        m = Machine(env, num_nodes=4)
        with pytest.raises(SimulationError):
            m.partition("big", 5)

    def test_get_partition(self, env):
        m = Machine(env, num_nodes=4)
        part = m.partition("x", 2)
        assert m.get_partition("x") is part


class TestPresets:
    def test_franklin_properties(self, env):
        m = franklin(env, num_nodes=64)
        assert m.name == "franklin"
        assert m.nodes[0].num_cores == 4
        assert m.network.topology is not None

    def test_redsky_properties(self, env):
        m = redsky(env, num_nodes=27)
        assert m.nodes[0].num_cores == 8
        assert m.nodes[0].memory_bytes == 12 * 2**30


class TestAprunModel:
    def test_sample_within_paper_range(self):
        model = AprunModel()
        rng = np.random.default_rng(0)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(3.0 <= s <= 27.0 for s in samples)
        # The paper saw values "between 3 to 27 seconds" with wide variance.
        assert max(samples) > 15
        assert min(samples) < 6

    def test_invalid_range_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            AprunModel(min_seconds=5, max_seconds=1).sample(rng)


class TestBatchScheduler:
    def _scheduler(self, env, count=8):
        m = Machine(env, num_nodes=count)
        pool = m.partition("staging", count)
        return BatchScheduler(env, pool, rng=np.random.default_rng(1))

    def test_allocate_and_release(self, env):
        sched = self._scheduler(env)
        job = sched.allocate(3, "bonds")
        assert sched.free_nodes == 5
        assert len(job.nodes) == 3
        sched.release(job)
        assert sched.free_nodes == 8

    def test_allocate_too_many_raises(self, env):
        sched = self._scheduler(env, 2)
        with pytest.raises(SimulationError):
            sched.allocate(3)

    def test_double_release_raises(self, env):
        sched = self._scheduler(env)
        job = sched.allocate(1)
        sched.release(job)
        with pytest.raises(SimulationError):
            sched.release(job)

    def test_launch_charges_aprun_time(self, env):
        sched = self._scheduler(env)
        results = []

        def proc(env):
            job = yield sched.launch(2, "cna")
            results.append((env.now, job.launch_cost))

        env.process(proc(env))
        env.run()
        now, cost = results[0]
        assert now == pytest.approx(cost)
        assert 3.0 <= cost <= 27.0

    def test_release_nodes_partial(self, env):
        sched = self._scheduler(env)
        job = sched.allocate(4)
        freed = sched.release_nodes(job, 2)
        assert len(freed) == 2
        assert len(job.nodes) == 2
        assert sched.free_nodes == 6

    def test_release_nodes_validation(self, env):
        sched = self._scheduler(env)
        job = sched.allocate(2)
        with pytest.raises(SimulationError):
            sched.release_nodes(job, 3)

    def test_restock_returns_quarantines_and_skips(self, env):
        sched = self._scheduler(env)
        job = sched.allocate(4)
        back, dead, also_back, _ = job.nodes
        dead.fail()
        before = REGISTRY.counter("cluster.scheduler.nodes_released")
        sched.restock([back, dead, also_back, back])
        assert sched.peek_free()[-2:] == [back, also_back]
        assert dead in sched.failed_nodes and dead not in sched.peek_free()
        assert REGISTRY.counter("cluster.scheduler.nodes_released") - before == 2
        sched.restock([back])  # already free: no duplicate, no count
        assert sched.peek_free().count(back) == 1
        assert REGISTRY.counter("cluster.scheduler.nodes_released") - before == 2

    def test_allocation_count_positive(self, env):
        sched = self._scheduler(env)
        with pytest.raises(ValueError):
            sched.allocate(0)
