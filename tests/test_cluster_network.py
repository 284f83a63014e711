"""Unit tests for the interconnect model."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment, FaultError
from repro.cluster import Machine, Network, Node, franklin, redsky
from repro.cluster.machine import torus_3d
from repro.cluster.network import _PAIR_KEY

from tests.transfer_differential import hold_every_slot, scheduled_kinds


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


class TestTransferWalkerIdentity:
    """``Network.transfer`` and ``Network.rdma_get`` (the ``_Transfer``
    callback chain) against the process-per-transfer generators in
    :mod:`tests.oracles.cluster`.

    The walker schedules only events that carry time, so its schedule is
    shorter than the process path's, but under insertion order every
    outcome is identical: completion times and values, error texts, the
    raised error, swallowed faults, drop and partition counts,
    ``TransferStats``, NIC byte counters and the final clock.  Transfers
    that find both channels free, and (with every slot pre-held) transfers
    that all queue, are both compared."""

    @staticmethod
    def _run(oracle, scenario, tie_seed=None, hold_until=None):
        """Run ``scenario(env, machine)`` with the live walker or, with
        ``oracle``, the reference processes, and return every outcome;
        ``hold_until`` pre-holds every NIC slot until then."""
        from unittest import mock

        from tests.oracles import cluster as _reference
        from repro.simkernel import shuffle

        env = Environment() if tie_seed is None else Environment(tie_breaker=shuffle(tie_seed))
        machine = Machine(env, num_nodes=6, cores_per_node=2, nic_streams=1)
        if hold_until is not None:
            hold_every_slot(env, machine, hold_until)
        patches = []
        if oracle:
            patches += [mock.patch.object(Network, "transfer", _reference.transfer),
                        mock.patch.object(Network, "rdma_get", _reference.rdma_get)]
        for patch in patches:
            patch.start()
        try:
            outcome = scenario(env, machine)
            try:
                env.run()
                raised = None
            except Exception as error:  # an unwatched non-fault failure
                raised = (type(error).__name__, str(error))
        finally:
            for patch in patches:
                patch.stop()
        stats = machine.network.stats
        faults = machine.network.faults
        return dict(
            outcome=outcome, raised=raised, now=env.now,
            swallowed=env.swallowed_faults,
            dropped=getattr(faults, "dropped", None),
            partitioned=getattr(faults, "partitioned", None),
            stats=(stats.messages, stats.bytes, stats.busy_time, stats.wait_time,
                   dict(stats.per_pair)),
            nics=[(n.nic.bytes_sent, n.nic.bytes_received) for n in machine.nodes],
        )

    @staticmethod
    def _mover(env, machine, done, at, op, a, b, size, label, watched=True):
        """After ``at`` seconds start ``op`` ("xfer" a -> b, or "rdma":
        reader a pulls from target b); record how it ended if ``watched``."""
        net = machine.network
        yield env.timeout(at)
        start = net.transfer if op == "xfer" else net.rdma_get
        event = start(machine.nodes[a], machine.nodes[b], size)
        if not watched:
            return
        try:
            got = yield event
            done.append((env.now, label, "ok", got))
        except (FaultError, ValueError) as error:
            done.append((env.now, label, type(error).__name__, str(error)))

    def _contended(self, env, machine):
        """Capacity-1 NICs force queueing at senders and receivers; RDMA
        GETs contend with pushes; intra-node moves skip the NICs."""
        done = []
        moves = [
            (0.0, "xfer", 0, 1, 1e8), (0.0, "xfer", 0, 2, 1e8),
            (0.0, "xfer", 3, 1, 5e7), (0.0, "xfer", 0, 0, 1e9),
            (0.01, "rdma", 1, 0, 1e8), (0.0, "rdma", 4, 4, 10),
            (0.05, "xfer", 2, 1, 2e7), (0.05, "rdma", 2, 3, 3e7),
            (0.0, "xfer", 5, 4, 0),
        ]
        for i, (at, op, a, b, size) in enumerate(moves):
            env.process(self._mover(env, machine, done, at, op, a, b, size, i))
        return done

    def _faulty(self, env, machine):
        """Partition, drop and degrade windows; an endpoint crashed before
        and one during serialization; negative sizes; fire-and-forget
        transfers and GETs lost to a dead node."""
        from repro.faults import NetworkFaultState
        from repro.faults.plan import FaultPlan

        n = machine.nodes
        plan = FaultPlan(seed=11)
        plan.link_partition(0.0, (1,), duration=0.5)
        plan.message_drop(1.0, (2,), probability=0.5, duration=2.0)
        plan.link_degrade(0.0, (3,), factor=3.0, duration=10.0)
        machine.network.faults = NetworkFaultState(env, plan)
        done = []

        def go(at, op, a, b, size, label, watched=True):
            env.process(self._mover(env, machine, done, at, op, a, b, size, label, watched))

        go(0.1, "xfer", 0, 1, 1e6, "partitioned")
        go(0.1, "rdma", 1, 0, 1e6, "partitioned-get")
        go(0.6, "xfer", 0, 1, 1e6, "healed")
        for i in range(12):
            go(1.0 + 0.1 * i, "xfer", 0, 2, 1e6, f"drop{i}")
            go(1.0 + 0.1 * i, "xfer", 2, 2, 1e6, f"drop-local{i}")
            go(1.05 + 0.1 * i, "rdma", 0, 2, 1e6, f"drop-get{i}")
        go(0.2, "xfer", 0, 3, 1e8, "degraded")
        go(0.2, "xfer", 0, 1, -5, "negative")
        go(0.2, "rdma", 0, 4, -5, "negative-get")

        def chaos(env):
            yield env.timeout(2.5)
            n[5].fail()  # before the transfers to and GETs from node 5
            yield env.timeout(1.1)
            n[4].fail()  # mid-serialization of the big transfer to node 4

        env.process(chaos(env))
        go(3.0, "xfer", 0, 5, 1e6, "dead-dst")
        go(3.0, "rdma", 0, 5, 1e6, "dead-target")
        go(3.5, "xfer", 0, 4, int(1.6 * 2**30), "crashed-mid-wire")
        go(3.0, "xfer", 1, 5, 1e3, "forgotten", watched=False)
        go(3.0, "rdma", 1, 5, 1e3, "forgotten-get", watched=False)
        return done

    def test_contended_matches_process_path(self):
        fast = self._run(False, self._contended)
        assert fast == self._run(True, self._contended)
        assert fast["stats"][3] > 0  # the NICs really queued

    def test_held_slots_contended_path_matches_process_path(self):
        fast = self._run(False, self._contended, hold_until=1.0)
        assert fast == self._run(True, self._contended, hold_until=1.0)
        # the cross-node transfers waited out the hold
        assert fast["stats"][3] >= 0.95 * fast["stats"][0]

    def test_faults_match_process_path(self):
        fast = self._run(False, self._faulty)
        assert fast == self._run(True, self._faulty)
        # the scenario really reaches every branch it is meant to pin
        outcome = {label: (now, *rest) for now, label, *rest in fast["outcome"]}
        assert fast["partitioned"] == 2 and fast["dropped"] > 0
        assert outcome["partitioned"][1] == "TransferError"
        assert outcome["healed"][1] == "ok"
        assert outcome["negative"][1:] == ("ValueError", "negative transfer size -5")
        assert outcome["negative-get"][1:] == ("ValueError", "negative transfer size -5")
        assert outcome["dead-dst"][1:] == ("TransferError", "destination node 5 is down")
        assert outcome["dead-target"][1:] == ("TransferError", "source node 5 is down")
        assert outcome["crashed-mid-wire"][1:] == (
            "TransferError", "destination node 4 is down")
        assert any(outcome[f"drop-local{i}"][1] == "TransferError" for i in range(12))
        assert fast["swallowed"] == 2  # the two fire-and-forget losses

    def test_unwatched_negative_size_raises_identically(self):
        def scenario(env, machine):
            env.process(self._mover(env, machine, [], 0.0, "xfer", 0, 0, 1e3, 0))
            machine.network.transfer(machine.nodes[0], machine.nodes[1], -1)
            return None

        fast = self._run(False, scenario)
        assert fast == self._run(True, scenario)
        assert fast["raised"] == ("ValueError", "negative transfer size -1")

    def _seeded_mix(self, seed, watched_labels=None):
        """Twenty random transfers and GETs, watched or not, with one node
        crash and a random partition, drop and degrade window; the labels
        of the watched ones go into ``watched_labels`` if given."""
        import random

        from repro.faults import NetworkFaultState
        from repro.faults.plan import FaultPlan

        def scenario(env, machine):
            rng = random.Random(seed)
            plan = FaultPlan(seed=seed)
            plan.link_partition(rng.uniform(0, 2), (rng.randrange(6),),
                                duration=rng.uniform(0.01, 0.5))
            plan.message_drop(rng.uniform(0, 2), (rng.randrange(6),),
                              probability=rng.random(), duration=rng.uniform(0.1, 1.0))
            plan.link_degrade(rng.uniform(0, 2), (rng.randrange(6),),
                              factor=rng.uniform(1.0, 4.0), duration=rng.uniform(0.1, 1.0))
            machine.network.faults = NetworkFaultState(env, plan)
            victim, crash_at = rng.randrange(6), rng.uniform(0, 3)

            def chaos(env):
                yield env.timeout(crash_at)
                machine.nodes[victim].fail()

            env.process(chaos(env))
            done = []
            for i in range(20):
                watched = rng.random() < 0.8
                size = rng.choice((0, 1e3, 1e6, 1e8, 3e8) + ((-1,) if watched else ()))
                if watched and watched_labels is not None:
                    watched_labels.append(i)
                env.process(self._mover(
                    env, machine, done, round(rng.uniform(0, 3), 3),
                    rng.choice(("xfer", "rdma")), rng.randrange(6), rng.randrange(6),
                    size, i, watched,
                ))
            return done

        return scenario

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seeded_mix_matches_process_path(self, seed):
        fast = self._run(False, self._seeded_mix(seed))
        assert fast == self._run(True, self._seeded_mix(seed))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_held_slots_seeded_mix_matches_process_path(self, seed):
        # every transfer launches before 4.0, so every one queues
        fast = self._run(False, self._seeded_mix(seed), hold_until=4.0)
        assert fast == self._run(True, self._seeded_mix(seed), hold_until=4.0)

    @given(seed=st.integers(0, 2**32 - 1), held=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_shuffled_seeded_mix_conserves_every_move(self, seed, held):
        # Under a shuffled tie order, same-instant events may run in another
        # order on each side, and with them which move wins a NIC slot or a
        # fault window.  What holds under any order: each watched move ends
        # exactly once, and every byte sent is a byte received and counted.
        for oracle in (False, True):
            watched = []
            run = self._run(oracle, self._seeded_mix(seed, watched), tie_seed=seed,
                            hold_until=4.0 if held else None)
            labels = sorted(label for _, label, *_ in run["outcome"])
            assert labels == watched
            sent = sum(s for s, _ in run["nics"])
            received = sum(r for _, r in run["nics"])
            assert sent == received == run["stats"][1]


class TestWalkerSchedulesOnlyTimedEvents:
    """A transfer or RDMA GET schedules only events that carry time: NIC
    channel ``Request`` events, ``Timeout`` events (wire, software overhead,
    GET request latency) and a walker's ``result``; no bare step event."""

    @staticmethod
    def _kinds(start):
        env = Environment()
        machine = Machine(env, num_nodes=4, cores_per_node=2, nic_streams=1)
        with scheduled_kinds(env) as kinds:
            done = start(machine.network, machine.nodes)
            env.run()
        assert all(event.ok for event in done)
        assert len(kinds) == env.events_processed  # the spy saw every event
        return kinds

    def test_uncontended_transfer(self):
        kinds = self._kinds(lambda net, n: [net.transfer(n[0], n[1], 1e6)])
        assert kinds == ["Timeout", "result"]

    def test_queued_transfer(self):
        kinds = self._kinds(lambda net, n: [net.transfer(n[0], n[1], 1e6),
                                            net.transfer(n[0], n[2], 1e6)])
        # the second is granted its free receive channel at once and waits
        # for the send channel the first holds; its wire time starts when
        # that is granted
        assert kinds == ["Timeout", "Request", "Request", "result", "Timeout", "result"]

    def test_intra_node_transfer(self):
        kinds = self._kinds(lambda net, n: [net.transfer(n[2], n[2], 1e6)])
        assert kinds == ["Timeout", "result"]

    def test_rdma_get(self):
        kinds = self._kinds(lambda net, n: [net.rdma_get(n[0], n[3], 1e6)])
        # request latency, then the transfer target -> reader, then the GET
        assert kinds == ["Timeout", "Timeout", "result", "result"]
