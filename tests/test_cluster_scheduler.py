"""Unit tests for machine partitioning and the batch scheduler."""

import numpy as np
import pytest

from repro.simkernel import Environment, SimulationError
from repro.cluster import AprunModel, BatchScheduler, Machine, franklin, redsky
from repro.cluster.scheduler import FAILED, FREE, container_owner
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
        nodes = sched.allocate(3, container_owner("bonds"))
        assert sched.free_nodes == 5
        assert len(nodes) == 3
        assert all(sched.owner(n) == "container:bonds" for n in nodes)
        sched.restock(nodes, container_owner("bonds"))
        assert sched.free_nodes == 8
        # freed nodes rejoin at the tail, in the order they became free
        assert sched.peek_free()[-3:] == nodes

    def test_allocate_too_many_raises(self, env):
        sched = self._scheduler(env, 2)
        with pytest.raises(SimulationError):
            sched.allocate(3, container_owner("x"))

    def test_double_release_raises(self, env):
        sched = self._scheduler(env)
        nodes = sched.allocate(1, container_owner("x"))
        sched.restock(nodes, container_owner("x"))
        with pytest.raises(SimulationError, match="owned by free"):
            sched.restock(nodes, container_owner("x"))

    def test_move_checks_the_current_owner(self, env):
        sched = self._scheduler(env)
        (node,) = sched.allocate(1, container_owner("a"))
        with pytest.raises(SimulationError, match="container:a, not container:b"):
            sched.move([node], FREE, container_owner("b"))
        sched.mark_failed(node)  # from any owner
        assert sched.owner(node) == FAILED
        sched.move([node], FREE, container_owner("a"))  # a dead node stays put
        assert sched.owner(node) == FAILED and sched.free_nodes == 7

    def test_restock_returns_quarantines_and_skips(self, env):
        sched = self._scheduler(env)
        holder = container_owner("x")
        back, dead, also_back, _ = sched.allocate(4, holder)
        dead.fail()
        before = REGISTRY.counter("cluster.scheduler.nodes_released")
        sched.restock([back, dead, also_back], holder)
        assert sched.peek_free()[-2:] == [back, also_back]
        assert sched.owner(dead) == FAILED and dead not in sched.peek_free()
        assert REGISTRY.counter("cluster.scheduler.nodes_released") - before == 2
        sched.restock([dead], holder)  # quarantined: skipped, no count
        assert sched.owner(dead) == FAILED
        assert REGISTRY.counter("cluster.scheduler.nodes_released") - before == 2

    def test_allocation_count_positive(self, env):
        sched = self._scheduler(env)
        with pytest.raises(ValueError):
            sched.allocate(0, container_owner("x"))
