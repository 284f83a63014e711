"""Unit tests for the EVPath layer: messages, endpoints, channels,
overlays."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import SimulationError
from repro.evpath import Message, MessageType, Messenger, OverlayTree

from tests.transfer_differential import hold_every_slot, scheduled_kinds


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
                Message(MessageType.DECREASE_REQUEST, "s", payload={"count": 1, "to": "free"}),
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
    """The _FastSend chain against the process-based send in
    :mod:`tests.oracles.evpath`, fault-free or fault-armed.  The chain
    schedules only events that carry time, so its schedule is shorter, but
    under insertion order every outcome is identical: completion and
    delivery times, error texts, send and retry counts, swallowed faults,
    drop and partition counts, ``TransferStats``, NIC byte counters,
    messages delivered per endpoint and the final clock.  Sends whose
    transfers find both channels free, and (with every slot pre-held)
    sends whose transfers all queue, are both compared."""

    @staticmethod
    def _run(oracle, scenario, retry=None, hold_until=None):
        """Run ``scenario(env, machine, messenger, send)``, sending through
        ``Messenger.send`` or, with ``oracle``, through the reference
        process-per-message send, and return every outcome; ``hold_until``
        pre-holds every NIC slot until then."""
        from repro.simkernel import Environment
        from repro.cluster import Machine
        from tests.oracles import evpath as _reference

        env = Environment()
        machine = Machine(env, num_nodes=6, cores_per_node=2)
        messenger = Messenger(env, machine.network, retry=retry)
        if hold_until is not None:
            hold_every_slot(env, machine, hold_until)

        def send(src, to, msg):
            if oracle:
                return _reference.send_process(messenger, src, to, msg)
            return messenger.send(src, to, msg)

        outcome = scenario(env, machine, messenger, send)
        env.run()
        stats = machine.network.stats
        faults = machine.network.faults
        return dict(
            outcome=outcome, now=env.now,
            sent=messenger.messages_sent, bytes_sent=messenger.bytes_sent,
            retries=messenger.retries, swallowed=env.swallowed_faults,
            dropped=getattr(faults, "dropped", None),
            partitioned=getattr(faults, "partitioned", None),
            stats=(stats.messages, stats.bytes, stats.busy_time, stats.wait_time,
                   dict(stats.per_pair)),
            nics=[(n.nic.bytes_sent, n.nic.bytes_received) for n in machine.nodes],
            delivered={name: ep.delivered for name, ep in messenger._endpoints.items()},
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
        mid-serialization whose endpoint is rehosted between retries, a
        fire-and-forget send that exhausts its retries, and a negative
        size, which fails without a retry."""
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
            except (FaultError, ValueError) as error:
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
        env.process(sender(env, 0.2, n[0], "lossy", "negative", size=-5))

        def fire_and_forget(env):
            yield env.timeout(3.0)
            send(n[1], "dead", Message(MessageType.ACK, "src", payload="lost"))

        env.process(fire_and_forget(env))
        return done

    def test_fast_chain_matches_process_path(self):
        fast = self._run(False, self._contended)
        assert fast == self._run(True, self._contended)
        assert fast["stats"][3] > 0  # some sends really queued

    def test_held_slots_chain_matches_process_path(self):
        fast = self._run(False, self._contended, hold_until=1.0)
        assert fast == self._run(True, self._contended, hold_until=1.0)
        # the cross-node sends waited out the hold
        assert fast["stats"][3] >= 0.95 * fast["stats"][0]

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_fault_armed_chain_matches_process_path(self, jitter):
        from repro.evpath.channel import RetryPolicy

        fast = self._run(False, self._faulty, RetryPolicy(jitter=jitter, seed=7))
        assert fast == self._run(True, self._faulty, RetryPolicy(jitter=jitter, seed=7))
        # the scenario really reaches every branch it is meant to pin
        outcome = {payload: (now, *rest) for now, payload, *rest in fast["outcome"]}
        assert fast["partitioned"] > 0 and fast["dropped"] > 0
        assert fast["retries"] > 0 and fast["swallowed"] == 1
        assert outcome["big"][1] == "ok"  # delivered on its rehosted node
        assert outcome["waited"][1:] == ("failed", "destination node 5 is down")
        assert outcome["negative"] == (0.2, "failed", "negative transfer size -5")
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

    @staticmethod
    def _seeded_mix(seed):
        """Twenty random sends between endpoints on six nodes, watched or
        not, with one node crash, a random partition and drop window, and
        a jittered retry ladder."""
        import random

        from repro.faults import NetworkFaultState
        from repro.faults.plan import FaultPlan
        from repro.evpath.messages import Message, MessageType
        from repro.simkernel.errors import FaultError

        def scenario(env, machine, messenger, send):
            rng = random.Random(seed)
            plan = FaultPlan(seed=seed)
            plan.link_partition(rng.uniform(0, 1), (rng.randrange(6),),
                                duration=rng.uniform(0.01, 0.4))
            plan.message_drop(rng.uniform(0, 1), (rng.randrange(6),),
                              probability=rng.random(), duration=rng.uniform(0.1, 1.0))
            machine.network.faults = NetworkFaultState(env, plan)
            for i, node in enumerate(machine.nodes):
                messenger.endpoint(node, f"ep{i}")
            victim, crash_at = rng.randrange(6), rng.uniform(0, 2)

            def chaos(env):
                yield env.timeout(crash_at)
                machine.nodes[victim].fail()

            env.process(chaos(env))
            done = []

            def sender(env, at, src, to, label, size):
                yield env.timeout(at)
                msg = Message(MessageType.ACK, "src", payload=label)
                msg.size_bytes = size
                try:
                    got = yield send(machine.nodes[src], to, msg)
                    done.append((env.now, label, "ok", got.payload))
                except FaultError as error:
                    done.append((env.now, label, "failed", str(error)))

            for i in range(20):
                at = round(rng.uniform(0, 2), 3)
                src, to = rng.randrange(6), f"ep{rng.randrange(6)}"
                size = rng.choice((0, 1e3, 1e6, 1e8))
                if rng.random() < 0.8:
                    env.process(sender(env, at, src, to, i, size))
                else:
                    msg = Message(MessageType.ACK, "src", payload=i)
                    msg.size_bytes = size
                    env.process(_send_later(env, at, send, machine.nodes[src], to, msg))
            return done

        return scenario

    @given(seed=st.integers(0, 2**32 - 1), held=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_seeded_mix_matches_process_path(self, seed, held):
        from repro.evpath.channel import RetryPolicy

        runs = [self._run(oracle, self._seeded_mix(seed), RetryPolicy(jitter=0.3, seed=seed),
                          hold_until=2.5 if held else None)
                for oracle in (False, True)]
        assert runs[0] == runs[1]


def _send_later(env, at, send, src, to, message):
    """Fire and forget ``message`` after ``at`` seconds."""
    yield env.timeout(at)
    send(src, to, message)


class TestSendSchedulesOnlyTimedEvents:
    """A send schedules only events that carry time: its transfer's
    ``Timeout``, the mailbox put (none for a message type the endpoint
    handles at delivery), a backoff ``Timeout`` per retry and the send's
    ``result``; no bare step event."""

    @staticmethod
    def _kinds(plan=None, receiver=None, message=None):
        """Send ``message`` (an ACK by default) from node 0 to the endpoint
        ``receiver(env, machine, messenger)`` names (a plain endpoint
        "dst" on node 1 by default); return the kinds of the events the
        send scheduled, and the messenger."""
        from repro.simkernel import Environment
        from repro.cluster import Machine
        from repro.faults import NetworkFaultState

        env = Environment()
        machine = Machine(env, num_nodes=4, cores_per_node=2)
        messenger = Messenger(env, machine.network)
        if receiver is None:
            to = messenger.endpoint(machine.nodes[1], "dst").name
        else:
            to = receiver(env, machine, messenger)
            env.run(until=1.0)  # the receiver is up and idle
        if plan is not None:
            machine.network.faults = NetworkFaultState(env, plan)
        before = env.events_processed
        with scheduled_kinds(env) as kinds:
            sent = messenger.send(machine.nodes[0], to,
                                  message or Message(MessageType.ACK, "src"))
            env.run(until=sent)
        assert sent.ok
        assert len(kinds) == env.events_processed - before  # the spy saw every event
        return kinds, messenger

    def test_send(self):
        kinds, messenger = self._kinds()
        assert kinds == ["Timeout", "StorePut", "result"]
        assert messenger.retries == 0

    def test_send_to_a_participant(self):
        from repro.transactions import TxnParticipant

        def participant(env, machine, messenger):
            return TxnParticipant(env, messenger, machine.nodes[1], "p").endpoint.name

        # an ack for no open round: dropped at delivery
        kinds, _ = self._kinds(receiver=participant, message=Message(
            MessageType.TXN_ACK, "src", payload={"txn_id": 1}))
        assert kinds == ["Timeout", "result"]

    def test_metric_report_to_the_global_manager(self):
        from repro.containers.global_manager import GlobalManager

        gms = []

        def global_manager(env, machine, messenger):
            gms.append(GlobalManager(env, messenger, machine.nodes[1], scheduler=None,
                                     sla_interval=30.0, control_interval=1e6))
            return gms[0].endpoint.name

        report = dict(container="c", time=1.0, buffer_occupancy=0.5, queued=3)
        kinds, _ = self._kinds(receiver=global_manager, message=Message(
            MessageType.METRIC_REPORT, "lm", payload=report))
        assert kinds == ["Timeout", "result"]
        assert gms[0]._reports == {"c": report}
        assert gms[0].endpoint.pending == 0

    def test_heartbeat_to_a_monitor(self):
        from repro.faults.detect import FailureDetector, HeartbeatMonitor

        detectors = []

        def monitor(env, machine, messenger):
            detectors.append(FailureDetector(env, "lm", 5.0))
            detectors[0].watch("r0")
            return HeartbeatMonitor(env, messenger, "hb", machine.nodes[1],
                                    detectors[0]).endpoint.name

        kinds, _ = self._kinds(receiver=monitor, message=Message(
            MessageType.HEARTBEAT, "r0", payload={"member": "r0"}))
        assert kinds == ["Timeout", "result"]
        assert detectors[0].beats == 1

    def test_send_retried_past_a_partition(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(seed=1)
        plan.link_partition(0.0, (1,), duration=0.1)
        kinds, messenger = self._kinds(plan)
        # two backoffs (0.05 s, then 0.1 s) outlast the partition
        assert messenger.retries == 2
        assert kinds == ["Timeout", "Timeout", "Timeout", "StorePut", "result"]


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
