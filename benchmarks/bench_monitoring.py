"""Ablation: monitoring transport — direct reports vs aggregation overlay.

Section III-E: monitoring runs over 'dynamic overlays' with configurable
capture rate, processing location, and aggregation, "to minimize
perturbation to applications from the monitoring carried out by I/O
containers".  This bench quantifies the perturbation difference at a scale
where it matters: many managed containers reporting to one global manager.
"""

import pytest

from repro.simkernel import Environment
from repro.cluster import Machine
from repro.evpath import Messenger, OverlayTree

from conftest import print_table

N_REPORTERS = 48
WINDOWS = 6
INTERVAL = 15.0


def run_direct():
    env = Environment()
    machine = Machine(env, num_nodes=N_REPORTERS + 2)
    messenger = Messenger(env, machine.network)
    gm_node = machine.nodes[0]
    received = []
    ep = messenger.endpoint(gm_node, "gm")

    def sink(env):
        while True:
            msg = yield ep.recv()
            received.append(msg)

    def reporter(env, node, idx):
        for _ in range(WINDOWS):
            yield env.timeout(INTERVAL)
            from repro.evpath import Message, MessageType

            yield messenger.send(node, "gm", Message(
                MessageType.METRIC_REPORT, sender=f"r{idx}",
                payload={"latency": 1.0}, size_bytes=512,
            ))

    env.process(sink(env))
    for i in range(N_REPORTERS):
        env.process(reporter(env, machine.nodes[2 + i], i))
    env.run(until=WINDOWS * INTERVAL + 10)
    root_messages = len(received)
    return len(received), root_messages


def run_overlay():
    env = Environment()
    machine = Machine(env, num_nodes=N_REPORTERS + 2)
    messenger = Messenger(env, machine.network)
    gm_node = machine.nodes[0]
    received = []
    overlay = OverlayTree(
        env, messenger, gm_node, machine.nodes[2 : 2 + N_REPORTERS],
        on_report=received.append, fanout=4, flush_interval=INTERVAL,
    )

    def reporter(env, node):
        for _ in range(WINDOWS):
            yield env.timeout(INTERVAL)
            yield overlay.submit(node, {"latency": 1.0})

    for i in range(N_REPORTERS):
        env.process(reporter(env, machine.nodes[2 + i]))
    env.run(until=WINDOWS * INTERVAL + 60)
    overlay.stop()
    return len(received), overlay.root_ingress


def test_overlay_reduces_root_hotspot(benchmark):
    def both():
        return run_direct(), run_overlay()

    (direct_received, direct_root), (overlay_received, overlay_root) = \
        benchmark.pedantic(both, rounds=1, iterations=1)
    print_table(
        f"Monitoring ablation ({N_REPORTERS} reporters x {WINDOWS} windows)",
        ["transport", "reports delivered", "messages into GM node"],
        [
            ["direct", direct_received, direct_root],
            ["overlay (windowed)", overlay_received, overlay_root],
        ],
    )
    benchmark.extra_info.update({
        "direct_root": direct_root, "overlay_root": overlay_root,
    })
    # Nothing lost either way.
    assert direct_received == N_REPORTERS * WINDOWS
    assert overlay_received == N_REPORTERS * WINDOWS
    # The hot spot at the global manager shrinks by ~fanout-tree factor.
    assert overlay_root < direct_root / 3


def test_overlay_monitoring_pipeline_equivalence(benchmark):
    """Full pipeline: the overlay transport changes perturbation, not the
    management outcome."""
    from repro.spec import PipelineSpec, WorkloadSpec, build

    def both():
        results = {}
        for mode in ("direct", "overlay"):
            env = Environment()
            wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=25)
            pipe = build(env, PipelineSpec("monitoring", workload=wl, builder=dict(
                seed=1, monitoring=mode)))
            pipe.run(settle=300)
            results[mode] = pipe
        return results

    results = benchmark.pedantic(both, rounds=1, iterations=1)
    for mode, pipe in results.items():
        assert pipe.containers["bonds"].units >= 5, mode
        assert pipe.driver.blocked_time == 0.0, mode
    rows = [[mode,
             len(pipe.global_manager.actions_taken),
             pipe.containers["bonds"].units]
            for mode, pipe in results.items()]
    print_table("Pipeline outcome by monitoring transport",
                ["mode", "actions", "final bonds units"], rows)
