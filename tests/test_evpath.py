"""Unit tests for the EVPath layer: messages, endpoints, channels, stones,
overlays."""

import pytest

from repro.simkernel import SimulationError
from repro.evpath import Message, MessageType, Messenger, OverlayTree, StoneGraph
from repro.evpath.channel import Channel


class TestMessages:
    def test_sequence_numbers_increase(self):
        a = Message(MessageType.ACK, "x")
        b = Message(MessageType.ACK, "x")
        assert b.seq > a.seq

    def test_reply_correlates(self):
        req = Message(MessageType.INCREASE_REQUEST, "gm")
        rep = req.reply(MessageType.ACK, "cm")
        assert rep.reply_to == req.seq


class TestEndpoints:
    def test_register_and_lookup(self, env, machine, messenger):
        ep = messenger.endpoint(machine.nodes[0], "a")
        assert messenger.lookup("a") is ep

    def test_duplicate_name_rejected(self, env, machine, messenger):
        messenger.endpoint(machine.nodes[0], "a")
        with pytest.raises(SimulationError):
            messenger.endpoint(machine.nodes[1], "a")

    def test_unknown_lookup_raises(self, messenger):
        with pytest.raises(SimulationError):
            messenger.lookup("ghost")

    def test_unregister(self, env, machine, messenger):
        messenger.endpoint(machine.nodes[0], "a")
        messenger.unregister("a")
        with pytest.raises(SimulationError):
            messenger.lookup("a")

    def test_send_delivers(self, env, machine, messenger):
        ep = messenger.endpoint(machine.nodes[1], "dst")
        got = []

        def receiver(env):
            msg = yield ep.recv()
            got.append(msg.payload)

        def sender(env):
            yield messenger.send(
                machine.nodes[0], "dst", Message(MessageType.ACK, "src", payload=7)
            )

        env.process(receiver(env))
        env.process(sender(env))
        env.run()
        assert got == [7]
        assert messenger.messages_sent == 1

    def test_typed_recv_filters(self, env, machine, messenger):
        ep = messenger.endpoint(machine.nodes[1], "dst")
        got = []

        def receiver(env):
            msg = yield ep.recv(MessageType.DECREASE_REQUEST)
            got.append(msg.mtype)

        def sender(env):
            yield messenger.send(machine.nodes[0], "dst", Message(MessageType.ACK, "s"))
            yield messenger.send(
                machine.nodes[0], "dst",
                Message(MessageType.DECREASE_REQUEST, "s", payload={"count": 1}),
            )

        env.process(receiver(env))
        env.process(sender(env))
        env.run()
        assert got == [MessageType.DECREASE_REQUEST]
        assert ep.pending == 1  # the ACK is still waiting

    def test_request_reply_roundtrip(self, env, machine, messenger):
        server_ep = messenger.endpoint(machine.nodes[1], "server")
        client_ep = messenger.endpoint(machine.nodes[0], "client")
        results = []

        def server(env):
            msg = yield server_ep.recv()
            yield messenger.send(
                machine.nodes[1], "client", msg.reply(MessageType.ACK, "server", payload="pong")
            )

        def client(env):
            reply = yield messenger.request(
                machine.nodes[0], client_ep, "server",
                Message(MessageType.SPEEDUP_QUERY, "client", payload="ping"),
            )
            results.append(reply.payload)

        env.process(server(env))
        env.process(client(env))
        env.run()
        assert results == ["pong"]


class TestChannel:
    def test_fixed_pipe(self, env, machine, messenger):
        a = messenger.endpoint(machine.nodes[0], "a")
        b = messenger.endpoint(machine.nodes[1], "b")
        chan = Channel(messenger, a, b)
        got = []

        def receiver(env):
            msg = yield b.recv()
            got.append(msg.payload)

        def sender(env):
            yield chan.send(Message(MessageType.ACK, "a", payload="hi"))

        env.process(receiver(env))
        env.process(sender(env))
        env.run()
        assert got == ["hi"]


class TestStones:
    def test_filter_transform_handler_chain(self, env, machine, messenger):
        graph = StoneGraph(env, messenger)
        out = []
        f = graph.create_stone(machine.nodes[0], "filter", lambda e: e % 2 == 0)
        t = graph.create_stone(machine.nodes[1], "transform", lambda e: e * 10)
        h = graph.create_stone(machine.nodes[2], "handler", out.append)
        f.link(t)
        t.link(h)

        def feed(env):
            for value in range(4):
                yield graph.submit(f, value)

        env.process(feed(env))
        env.run()
        assert out == [0, 20]
        assert f.events_in == 4

    def test_router_selects_output(self, env, machine, messenger):
        graph = StoneGraph(env, messenger)
        left, right = [], []
        r = graph.create_stone(machine.nodes[0], "router", lambda e: 0 if e < 10 else 1)
        r.link(graph.create_stone(machine.nodes[1], "handler", left.append))
        r.link(graph.create_stone(machine.nodes[2], "handler", right.append))

        def feed(env):
            yield graph.submit(r, 5)
            yield graph.submit(r, 50)

        env.process(feed(env))
        env.run()
        assert left == [5]
        assert right == [50]

    def test_router_out_of_range_fails(self, env, machine, messenger):
        graph = StoneGraph(env, messenger)
        r = graph.create_stone(machine.nodes[0], "router", lambda e: 7)
        r.link(graph.create_stone(machine.nodes[1], "handler", lambda e: None))

        def feed(env):
            yield graph.submit(r, 1)

        env.process(feed(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_bad_kind_rejected(self, env, machine, messenger):
        graph = StoneGraph(env, messenger)
        with pytest.raises(ValueError):
            graph.create_stone(machine.nodes[0], "mystery", lambda e: e)

    def test_cross_node_edge_costs_time(self, env, machine, messenger):
        graph = StoneGraph(env, messenger)
        out = []
        a = graph.create_stone(machine.nodes[0], "transform", lambda e: e)
        b = graph.create_stone(machine.nodes[1], "handler", lambda e: out.append(env.now))
        a.link(b)

        def feed(env):
            yield graph.submit(a, 1)

        env.process(feed(env))
        env.run()
        assert out[0] > 0.0


class TestOverlay:
    def test_reports_reach_root(self, env, machine, messenger):
        reports = []
        overlay = OverlayTree(
            env, messenger, machine.nodes[0], machine.nodes[1:9],
            on_report=reports.append, fanout=3,
        )

        def leaf(env):
            yield overlay.submit(machine.nodes[4], {"latency": 1.5})

        env.process(leaf(env))
        env.run()
        assert len(reports) == 1
        assert overlay.messages >= 1

    def test_depth_grows_logarithmically(self, env, machine, messenger):
        small = OverlayTree(env, messenger, machine.nodes[0], machine.nodes[1:4],
                            on_report=lambda r: None, fanout=4)
        big = OverlayTree(env, messenger, machine.nodes[0], machine.nodes[1:16],
                          on_report=lambda r: None, fanout=2)
        assert small.depth() <= big.depth()

    def test_non_leaf_submit_rejected(self, env, machine, messenger):
        overlay = OverlayTree(env, messenger, machine.nodes[0], machine.nodes[1:4],
                              on_report=lambda r: None)
        with pytest.raises(SimulationError):
            overlay.submit(machine.nodes[10], {})

    def test_validation(self, env, machine, messenger):
        with pytest.raises(ValueError):
            OverlayTree(env, messenger, machine.nodes[0], [], on_report=lambda r: None)
        with pytest.raises(ValueError):
            OverlayTree(env, messenger, machine.nodes[0], machine.nodes[1:3],
                        on_report=lambda r: None, fanout=1)


class TestFastSendIdentity:
    """The _FastSend chain must schedule the *identical* event sequence the
    process-based send in :mod:`repro.evpath._reference` does — fault-free
    or fault-armed — which is the whole byte-identity contract of the one
    send path."""

    @staticmethod
    def _run(oracle, scenario, retry=None):
        """Run ``scenario(env, machine, messenger, send)`` under a
        ``schedule()`` spy, sending through ``Messenger.send`` or, with
        ``oracle``, through the reference process-per-message send."""
        from repro.simkernel import Environment
        from repro.simkernel.events import NORMAL
        from repro.cluster import Machine
        from repro.evpath import _reference

        env = Environment()
        machine = Machine(env, num_nodes=6, cores_per_node=2)
        messenger = Messenger(env, machine.network, retry=retry)

        log = []
        orig = env.schedule

        def kind(event):
            name = type(event).__name__
            if name.endswith("Request") or name in ("Timeout", "StorePut", "FilterStoreGet"):
                return name
            return "ev"  # a process step or its callback-chain counterpart

        def spy(event, priority=NORMAL, delay=0.0):
            log.append((round(env.now, 12), priority, round(delay, 12), kind(event)))
            return orig(event, priority, delay)

        env.schedule = spy

        def send(src, to, msg):
            if oracle:
                return _reference.send_process(messenger, src, to, msg)
            return messenger.send(src, to, msg)

        outcome = scenario(env, machine, messenger, send)
        env.run()
        stats = machine.network.stats
        faults = machine.network.faults
        return dict(
            log=log, outcome=outcome, now=env.now,
            sent=messenger.messages_sent, bytes_sent=messenger.bytes_sent,
            retries=messenger.retries, swallowed=env.swallowed_faults,
            dropped=getattr(faults, "dropped", None),
            partitioned=getattr(faults, "partitioned", None),
            stats=(stats.messages, stats.bytes, stats.busy_time, stats.wait_time,
                   dict(stats.per_pair)),
        )

    @staticmethod
    def _contended(env, machine, messenger, send):
        """Contended cross-node sends (capacity-1 NIC channels force
        queueing) plus an intra-node send."""
        from repro.evpath.messages import Message, MessageType

        ep = messenger.endpoint(machine.nodes[1], "dst")
        ep_local = messenger.endpoint(machine.nodes[0], "loop")
        done = []

        def sender(env, src, to, payload):
            msg = yield send(src, to, Message(MessageType.ACK, "src", payload=payload))
            done.append((env.now, msg.payload))

        # two cross-node sends from the same source contend for its single
        # NIC send channel; a third from another node contends at the
        # receiver; plus one intra-node loopback
        env.process(sender(env, machine.nodes[0], "dst", 1))
        env.process(sender(env, machine.nodes[0], "dst", 2))
        env.process(sender(env, machine.nodes[2], "dst", 3))
        env.process(sender(env, machine.nodes[0], "loop", 4))

        def receiver(env, endpoint, n):
            for _ in range(n):
                msg = yield endpoint.recv()
                done.append((env.now, "recv", msg.payload))

        env.process(receiver(env, ep, 3))
        env.process(receiver(env, ep_local, 1))
        return done

    @staticmethod
    def _faulty(env, machine, messenger, send):
        """Every fault the send path handles: a partition healed between
        retries, a drop window (intra-node sends included), link
        degradation, a node crashed before a send, another crashed
        mid-serialization whose endpoint is rehosted between retries, and a
        fire-and-forget send that exhausts its retries."""
        from repro.faults import NetworkFaultState
        from repro.faults.plan import FaultPlan
        from repro.evpath.messages import Message, MessageType
        from repro.simkernel.errors import FaultError

        n = machine.nodes
        plan = FaultPlan(seed=11)
        plan.link_partition(0.0, (1,), duration=0.12)
        plan.message_drop(1.0, (2,), probability=0.5, duration=2.0)
        plan.link_degrade(0.0, (3,), factor=3.0, duration=10.0)
        machine.network.faults = NetworkFaultState(env, plan)

        messenger.endpoint(n[1], "behind_partition")
        messenger.endpoint(n[2], "lossy")
        messenger.endpoint(n[2], "lossy_local")
        mover = messenger.endpoint(n[3], "mover")
        messenger.endpoint(n[5], "dead")
        done = []

        def sender(env, at, src, to, payload, size=None):
            yield env.timeout(at)
            msg = Message(MessageType.ACK, "src", payload=payload)
            if size is not None:
                msg.size_bytes = size
            try:
                got = yield send(src, to, msg)
                done.append((env.now, payload, "ok", got.payload))
            except FaultError as error:
                done.append((env.now, payload, "failed", str(error)))

        def chaos(env):
            yield env.timeout(2.5)
            n[5].fail()  # before the sends to "dead"
            yield env.timeout(1.0)
            n[3].fail()  # mid-serialization of the big send to "mover"
            yield env.timeout(0.05)
            mover.node = n[4]  # rehosted before the retry fires

        env.process(chaos(env))
        for i in range(3):  # partitioned, then healed on a retry
            env.process(sender(env, 0.0, n[0], "behind_partition", f"p{i}"))
        for i in range(12):  # drop window, cross-node and intra-node
            env.process(sender(env, 1.0 + 0.1 * i, n[0], "lossy", f"d{i}"))
            env.process(sender(env, 1.0 + 0.1 * i, n[2], "lossy_local", f"l{i}"))
        env.process(sender(env, 3.0, n[0], "mover", "big", size=int(1.6 * 2**30)))
        env.process(sender(env, 3.0, n[0], "dead", "waited"))

        def fire_and_forget(env):
            yield env.timeout(3.0)
            send(n[1], "dead", Message(MessageType.ACK, "src", payload="lost"))

        env.process(fire_and_forget(env))
        return done

    def test_fast_chain_matches_process_path(self):
        fast = self._run(False, self._contended)
        slow = self._run(True, self._contended)
        assert fast == slow

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_fault_armed_chain_matches_process_path(self, jitter):
        from repro.evpath.channel import RetryPolicy

        fast = self._run(False, self._faulty, RetryPolicy(jitter=jitter, seed=7))
        slow = self._run(True, self._faulty, RetryPolicy(jitter=jitter, seed=7))
        assert fast == slow
        # the scenario really reaches every branch it is meant to pin
        outcome = {payload: (now, *rest) for now, payload, *rest in fast["outcome"]}
        assert fast["partitioned"] > 0 and fast["dropped"] > 0
        assert fast["retries"] > 0 and fast["swallowed"] == 1
        assert outcome["big"][1] == "ok"  # delivered on its rehosted node
        assert outcome["waited"][1:] == ("failed", "destination node 5 is down")
        # an intra-node send in the drop window was dropped and retried
        assert any(outcome[f"l{i}"][0] >= 1.0 + 0.1 * i + 0.05 for i in range(12))

    def test_fast_path_taken_when_fault_free(self, env, machine, messenger):
        from repro.evpath.messages import Message, MessageType
        from repro.simkernel import Event

        messenger.endpoint(machine.nodes[1], "d")
        ev = messenger.send(machine.nodes[0], "d",
                            Message(MessageType.ACK, "s"))
        assert type(ev) is Event  # chain result, not a Process
        env.run()
        assert ev.value.mtype is MessageType.ACK

    def test_fast_path_taken_when_faults_armed(self, env, machine, messenger):
        from repro.evpath.messages import Message, MessageType
        from repro.simkernel import Event

        messenger.endpoint(machine.nodes[1], "d")
        machine.network.faults = object.__new__(type("S", (), {
            "transit_check": lambda self, s, d, n: None,
            "delay_factor": lambda self, s, d: 1.0,
        }))
        ev = messenger.send(machine.nodes[0], "d",
                            Message(MessageType.ACK, "s"))
        assert type(ev) is Event  # one send path: no process fallback
        env.run()
        assert ev.value.mtype is MessageType.ACK


class TestRetryJitter:
    """The seeded backoff scatter (the thundering-herd fix): ``jitter=0``
    must reproduce the historical fixed ladder byte-for-byte, and a
    nonzero jitter must be deterministic per (seed, key) yet decorrelated
    across seeds and senders."""

    def test_default_is_legacy_ladder(self):
        from repro.evpath.channel import RetryPolicy

        policy = RetryPolicy()
        assert list(policy.delays()) == [0.05, 0.1, 0.2]
        # a key without jitter changes nothing (no hashing on this path)
        assert list(policy.delays(key="n1:ep:1")) == [0.05, 0.1, 0.2]

    def test_jitter_without_key_is_legacy_ladder(self):
        from repro.evpath.channel import RetryPolicy

        policy = RetryPolicy(jitter=0.5, seed=3)
        assert list(policy.delays()) == [0.05, 0.1, 0.2]

    def test_jitter_deterministic_per_seed_and_key(self):
        from repro.evpath.channel import RetryPolicy

        schedule = list(RetryPolicy(jitter=0.5, seed=3).delays(key="n1:ep:7"))
        again = list(RetryPolicy(jitter=0.5, seed=3).delays(key="n1:ep:7"))
        assert schedule == again  # same seed, same sender: same schedule

    def test_jitter_bounded_and_decorrelated(self):
        from repro.evpath.channel import RetryPolicy

        policy = RetryPolicy(jitter=0.5, seed=3)
        ladder = [0.05, 0.1, 0.2]
        schedule = list(policy.delays(key="n1:ep:7"))
        for delay, base in zip(schedule, ladder):
            assert base * 0.5 <= delay < base * 1.5
        assert schedule != ladder  # scatter actually applied
        assert list(RetryPolicy(jitter=0.5, seed=4).delays(key="n1:ep:7")) != schedule
        assert list(policy.delays(key="n2:ep:7")) != schedule

    def test_builder_threads_jitter_and_seed(self):
        from repro.containers.presets import build_failover_pipeline
        from repro.simkernel import Environment

        env = Environment()
        pipe = build_failover_pipeline(env, steps=8, seed=5)
        # the bundled failover spec sets retry_jitter: 0.1; the builder
        # derives the scatter seed from the schedule seed
        assert pipe.messenger.retry.jitter == 0.1
        assert pipe.messenger.retry.seed == 5
