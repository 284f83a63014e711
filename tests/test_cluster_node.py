"""Unit tests for nodes, NICs, and memory accounting."""

import pytest

from repro.simkernel import Environment, SimulationError
from repro.cluster import Node


class TestNodeValidation:
    def test_positive_cores_required(self, env):
        with pytest.raises(ValueError):
            Node(env, 0, cores=0)

    def test_nic_bandwidth_positive(self, env):
        with pytest.raises(ValueError):
            Node(env, 0, nic_bandwidth=0)


class TestMemory:
    def test_reserve_and_free(self, env):
        node = Node(env, 0, memory_bytes=1000)
        node.reserve_memory(400)
        assert node.memory_used == 400
        assert node.memory_free == 600
        node.free_memory(400)
        assert node.memory_used == 0

    def test_oom_raises(self, env):
        node = Node(env, 0, memory_bytes=1000)
        node.reserve_memory(900)
        with pytest.raises(SimulationError, match="out of memory"):
            node.reserve_memory(200)

    def test_over_free_raises(self, env):
        node = Node(env, 0, memory_bytes=1000)
        node.reserve_memory(100)
        with pytest.raises(SimulationError):
            node.free_memory(200)

    def test_negative_amounts_rejected(self, env):
        node = Node(env, 0)
        with pytest.raises(ValueError):
            node.reserve_memory(-1)
        with pytest.raises(ValueError):
            node.free_memory(-1)

    def test_float_roundoff_tolerated(self, env):
        """Many reserve/free cycles accumulate float error; the final free of
        'everything' must not raise."""
        node = Node(env, 0, memory_bytes=1e9)
        amount = 282276659.2
        for _ in range(50):
            node.reserve_memory(amount)
            node.free_memory(amount)
        node.reserve_memory(amount)
        node.free_memory(node.memory_used)  # exact drain


class TestCompute:
    def test_compute_occupies_cores(self, env):
        node = Node(env, 0, cores=2)
        done = []

        def work(env, label, seconds):
            yield node.compute(seconds)
            done.append((env.now, label))

        env.process(work(env, "a", 2))
        env.process(work(env, "b", 2))
        env.process(work(env, "c", 2))  # must wait for a core
        env.run()
        assert done == [(2.0, "a"), (2.0, "b"), (4.0, "c")]

