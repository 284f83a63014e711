#!/usr/bin/env python3
"""D2T control transactions: resilient management under failures.

Demonstrates the paper's Figure 6 machinery and its integration with the
container runtime:

1. a doubly distributed transaction across a 512-writer / 4-reader group
   pair commits in protocol time;
2. injected faults (abort votes, crashed participants) abort cleanly via
   presumed-abort timeouts;
3. a resource trade between containers runs transactionally: when the
   increase half fails mid-trade, compensation returns the nodes to the
   spare pool — the resource is never lost.

Run:  python examples/transactions_demo.py
"""

from repro import Environment, TransactionManager
from repro.cluster import redsky
from repro.evpath import Messenger
from repro.spec import PipelineSpec, WorkloadSpec, build
from repro.transactions import FailureInjector


def demo_commit_and_scale() -> None:
    print("=== 1. D2T two-phase commit across writer/reader groups ===")
    for writers, readers in [(64, 2), (512, 4), (2048, 8)]:
        env = Environment()
        machine = redsky(env, num_nodes=writers + readers + 1)
        messenger = Messenger(env, machine.network)
        tm = TransactionManager(env, messenger, machine.nodes[-1])
        wg = tm.build_group("writers", machine.nodes[:writers], fanout=8)
        rg = tm.build_group("readers", machine.nodes[writers:writers + readers])
        outcomes = []

        def txn(env):
            out = yield tm.run([wg, rg])
            outcomes.append(out)

        env.process(txn(env))
        env.run(until=60)
        out = outcomes[0]
        print(f"  {writers:5d}:{readers}  committed={out.committed}  "
              f"time={out.total * 1000:7.3f} ms  "
              f"(vote phase {out.vote_phase * 1000:.3f} ms, "
              f"tree depth {wg.depth()})")


def demo_failure_handling() -> None:
    print("\n=== 2. Fault injection: abort votes and crashed participants ===")
    for behaviour in ("abort", "crash"):
        env = Environment()
        machine = redsky(env, num_nodes=20)
        messenger = Messenger(env, machine.network)
        injector = FailureInjector()
        tm = TransactionManager(env, messenger, machine.nodes[-1],
                                injector=injector, vote_timeout=1.0)
        group = tm.build_group("g", machine.nodes[:8], fanout=2)
        injector.inject("g-p3", 1, behaviour)  # a coordinator's first txn is id 1
        outcomes = []

        def txn(env):
            out = yield tm.run([group])
            outcomes.append(out)

        env.process(txn(env))
        env.run(until=30)
        out = outcomes[0]
        print(f"  fault={behaviour:6s} -> committed={out.committed}  "
              f"timed_out={out.timed_out_groups}  "
              f"vote phase={out.vote_phase:.3f}s")


def demo_transactional_trade() -> None:
    print("\n=== 3. Transactional resource trade between containers ===")
    env = Environment()
    workload = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=8)
    pipe = build(env, PipelineSpec("trade", workload=workload, builder=dict(
        seed=0, control_interval=10_000)))
    tm = TransactionManager(env, pipe.messenger, pipe.machine.nodes[0])

    def total_nodes():
        held = sum(c.units for c in pipe.containers.values())
        held += sum(len(c.standby_nodes) for c in pipe.containers.values()
                    if not c.active)
        return held + pipe.scheduler.free_nodes

    before = total_nodes()
    tm.trade_faults.append("increase")  # make the second half of the trade fail

    def ctl(env):
        yield env.timeout(1)
        yield tm.run_trade(pipe.global_manager, "helper", "bonds", 1)
        # The failed trade compensated; retry succeeds using the spare node.
        yield pipe.global_manager.increase("bonds", 1)

    env.process(ctl(env))
    pipe.run(settle=120)

    print(f"  trades committed={tm.trades_committed} "
          f"aborted={tm.trades_aborted} compensated={tm.trades_compensated}")
    for entry in pipe.global_manager.actions_taken:
        print(f"    {entry}")
    print(f"  node conservation: {before} before, {total_nodes()} after "
          f"({'OK' if before == total_nodes() else 'LOST NODES'})")
    print(f"  final: helper={pipe.containers['helper'].units} "
          f"bonds={pipe.containers['bonds'].units} "
          f"spare={pipe.scheduler.free_nodes}")


if __name__ == "__main__":
    demo_commit_and_scale()
    demo_failure_handling()
    demo_transactional_trade()
