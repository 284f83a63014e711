"""Performance benchmarks of the simulation substrate itself.

Not a paper figure — these track the harness's own throughput (events,
store operations, transfers, full-pipeline runs) so regressions in the
engine show up in CI.  pytest-benchmark runs these with real repetitions,
unlike the single-shot experiment benches.
"""

import pytest

from repro.simkernel import Environment, Resource, Store
from repro.cluster import Machine
from repro.spec import PipelineSpec, WorkloadSpec, build


def test_event_throughput(benchmark):
    """Raw timeout scheduling: events processed per second."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(2000):
                yield env.timeout(1)

        for _ in range(5):
            env.process(ticker(env))
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 2000.0


def test_store_producer_consumer_throughput(benchmark):
    def run():
        env = Environment()
        store = Store(env, capacity=16)
        count = 3000

        def producer(env):
            for i in range(count):
                yield store.put(i)

        def consumer(env):
            for _ in range(count):
                yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        return store.size

    assert benchmark(run) == 0


def test_resource_contention_throughput(benchmark):
    def run():
        env = Environment()
        res = Resource(env, capacity=4)

        def user(env):
            for _ in range(50):
                req = res.request()
                yield req
                yield env.timeout(0.01)
                res.release(req)

        for _ in range(20):
            env.process(user(env))
        env.run()
        return res.count

    assert benchmark(run) == 0


def test_network_transfer_throughput(benchmark):
    def run():
        env = Environment()
        machine = Machine(env, num_nodes=8)

        def sender(env, src, dst):
            for _ in range(200):
                yield machine.network.transfer(src, dst, 1e6)

        for i in range(4):
            env.process(sender(env, machine.nodes[i], machine.nodes[i + 4]))
        env.run()
        return machine.network.stats.messages

    assert benchmark(run) == 800


def test_full_pipeline_wall_time(benchmark):
    """End-to-end harness cost of one Figure-7 run (the common unit of
    experiment work)."""

    def run():
        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=20)
        pipe = build(env, PipelineSpec("fig7", workload=wl, builder=dict(seed=1)))
        pipe.run(settle=120)
        return pipe.containers["csym"].completions

    assert benchmark(run) == 20
