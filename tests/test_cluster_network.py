"""Unit tests for the interconnect model."""

import itertools

import networkx as nx
import pytest

from repro.simkernel import Environment
from repro.cluster import Machine, Network, Node, franklin, redsky
from repro.cluster.machine import torus_3d
from repro.cluster.network import _PAIR_KEY


def _graph_oracle(shape):
    """The torus as a networkx graph, numbered the way Torus3D numbers it:
    periodic grid, coordinate tuples relabelled in sorted order."""
    graph = nx.grid_graph(dim=list(reversed(shape)), periodic=True)
    mapping = {coord: i for i, coord in enumerate(sorted(graph.nodes))}
    return nx.relabel_nodes(graph, mapping)


class TestTopology:
    def test_torus_shape(self):
        t = torus_3d((2, 2, 2))
        assert t.number_of_nodes() == 8
        # In a 2-wide torus, wraparound and direct links coincide; each node
        # still has 3 neighbours.
        for u in range(8):
            assert sum(t.hops(u, v) == 1 for v in range(8)) == 3

    def test_torus_larger_degree(self):
        t = torus_3d((4, 4, 4))
        assert t.number_of_nodes() == 64
        for u in range(64):
            assert sum(t.hops(u, v) == 1 for v in range(64)) == 6

    def test_torus_validation(self):
        with pytest.raises(ValueError):
            torus_3d((0, 2, 2))
        with pytest.raises(ValueError):
            torus_3d((2, 2))


class TestClosedFormMatchesGraph:
    """Differential check: closed-form hops equal BFS on the old graph."""

    @pytest.mark.parametrize("shape", [
        (2, 2, 2), (3, 4, 5), (5, 3, 2), (1, 4, 3), (4, 1, 1), (2, 7, 3),
        (6, 6, 6),
    ])
    def test_all_pairs(self, shape):
        t = torus_3d(shape)
        graph = _graph_oracle(shape)
        assert t.number_of_nodes() == graph.number_of_nodes()
        dist = dict(nx.all_pairs_shortest_path_length(graph))
        for u, v in itertools.product(range(t.number_of_nodes()), repeat=2):
            assert t.hops(u, v) == dist[u][v], (shape, u, v)

    @pytest.mark.parametrize("side", [9, 11, 13])
    def test_preset_shapes_from_sources(self, side):
        shape = (side, side, side)
        t = torus_3d(shape)
        graph = _graph_oracle(shape)
        n = t.number_of_nodes()
        for src in (0, 1, side + 2, n // 2, n - 1):
            dist = nx.single_source_shortest_path_length(graph, src)
            assert all(t.hops(src, v) == d for v, d in dist.items())


class TestHops:
    def test_flat_network_single_hop(self, env):
        net = Network(env, topology=None)
        assert net.hops(0, 5) == 1
        assert net.hops(3, 3) == 0

    def test_torus_shortest_path(self, env):
        t = torus_3d((4, 4, 4))
        net = Network(env, topology=t)
        assert net.hops(0, 0) == 0
        # Adjacent nodes (+1 on each axis: ids 16, 4, 1) are one hop.
        for neighbor in (16, 4, 1):
            assert net.hops(0, neighbor) == 1

    def test_hops_cached_and_symmetric(self, env):
        net = Network(env, topology=torus_3d((3, 3, 3)))
        assert net.hops(1, 20) == net.hops(20, 1)
        assert net._hops_cache == {1 * _PAIR_KEY + 20: net.hops(1, 20)}

    def test_out_of_range_ids_rejected(self, env):
        t = torus_3d((3, 3, 3))
        net = Network(env, topology=t)
        for u, v in ((0, 27), (27, 0), (-1, 4), (4, -1), (0, _PAIR_KEY + 1)):
            with pytest.raises(ValueError):
                t.hops(u, v)
            with pytest.raises(ValueError):
                net.hops(u, v)
        assert net._hops_cache == {}


class TestFullScalePresets:
    @pytest.mark.parametrize("preset, side", [(franklin, 22), (redsky, 15)])
    def test_builds_and_routes_corner_to_corner(self, env, preset, side):
        machine = preset(env, full_scale=True)
        topology = machine.network.topology
        assert topology.shape == (side, side, side)
        assert topology.number_of_nodes() >= len(machine.nodes)
        opposite = (side // 2) * (side * side + side + 1)
        assert machine.network.hops(0, opposite) == 3 * (side // 2)


class TestTransfer:
    def test_duration_matches_model(self, env):
        m = Machine(env, num_nodes=4, nic_bandwidth=1e9)
        src, dst = m.nodes[0], m.nodes[1]
        nbytes = 1e8
        expected = m.network.ideal_transfer_time(src, dst, nbytes)
        done = []

        def proc(env):
            yield m.network.transfer(src, dst, nbytes)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done[0] == pytest.approx(expected)

    def test_intra_node_transfer_is_cheap(self, env):
        m = Machine(env, num_nodes=2)
        done = []

        def proc(env):
            yield m.network.transfer(m.nodes[0], m.nodes[0], 1e9)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done[0] == m.network.software_overhead

    def test_nic_contention_serializes(self, env):
        m = Machine(env, num_nodes=3, nic_bandwidth=1e9, nic_streams=1)
        src = m.nodes[0]
        done = []

        def proc(env, dst):
            yield m.network.transfer(src, dst, 1e9)  # ~1 s each
            done.append(env.now)

        env.process(proc(env, m.nodes[1]))
        env.process(proc(env, m.nodes[2]))
        env.run()
        # Second transfer waits for the first sender-side NIC channel.
        assert done[1] >= done[0] + 0.9
        assert m.network.stats.wait_time > 0

    def test_negative_size_rejected(self, env):
        m = Machine(env, num_nodes=2)
        env.process(bad(env, m))
        with pytest.raises(ValueError):
            env.run()

    def test_rdma_get_adds_request_latency(self, env):
        m = Machine(env, num_nodes=2)
        reader, target = m.nodes[0], m.nodes[1]
        times = {}

        def push(env):
            start = env.now
            yield m.network.transfer(target, reader, 1e6)
            times["push"] = env.now - start

        def pull(env):
            yield env.timeout(10)
            start = env.now
            yield m.network.rdma_get(reader, target, 1e6)
            times["pull"] = env.now - start

        env.process(push(env))
        env.process(pull(env))
        env.run()
        assert times["pull"] > times["push"]

    def test_stats_accumulate(self, env):
        m = Machine(env, num_nodes=2)

        def proc(env):
            yield m.network.transfer(m.nodes[0], m.nodes[1], 100)
            yield m.network.transfer(m.nodes[0], m.nodes[1], 200)

        env.process(proc(env))
        env.run()
        assert m.network.stats.messages == 2
        assert m.network.stats.bytes == 300
        assert m.nodes[0].nic.bytes_sent == 300
        assert m.nodes[1].nic.bytes_received == 300


def bad(env, m):
    yield m.network.transfer(m.nodes[0], m.nodes[1], -5)
