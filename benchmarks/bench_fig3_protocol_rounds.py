"""Figure 3: the increase-container protocol.

The paper sketches the rounds of control messages among the global manager,
container manager, and component executables.  This bench traces one
increase and prints the observed round sequence, verifying the protocol
shape: request in, per-replica spawn + metadata-exchange rounds, completion
out.
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build

from conftest import print_table


def run_increase(new_nodes=2):
    env = Environment()
    # The default 13-node stage allocation; 3 spares remain for us.
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=16, spare=3, steps=4)
    pipe = build(env, PipelineSpec("fig3", workload=wl, builder=dict(
        seed=0, control_interval=10_000)))

    def do(env):
        yield env.timeout(1)
        yield pipe.global_manager.increase("bonds", new_nodes)

    env.process(do(env))
    pipe.run(settle=60)
    return pipe.tracer.of("increase")[0], pipe


def test_fig3_increase_protocol_rounds(benchmark):
    record, _ = benchmark.pedantic(run_increase, rounds=1, iterations=1)
    print_table(
        "Figure 3: increase protocol rounds (+2 replicas)",
        ["#", "Round"],
        [[i, r] for i, r in enumerate(record.rounds)],
    )
    benchmark.extra_info["rounds"] = record.rounds
    benchmark.extra_info["messages"] = record.messages

    # Shape: request first, completion last, one spawn+ready pair per replica.
    assert record.rounds[0] == "global->local: increase request"
    assert record.rounds[-1] == "local->global: resize complete"
    spawns = [r for r in record.rounds if "spawn" in r]
    readies = [r for r in record.rounds if "ready" in r]
    assert len(spawns) == 2
    assert len(readies) == 2
    # Each new replica exchanged metadata with manager + peers + writers.
    assert record.messages["intra_container"] >= 2 * 2  # >= 2 peers each


def test_fig3_rounds_scale_with_replicas(benchmark):
    def both():
        return run_increase(1)[0], run_increase(3)[0]

    small, big = benchmark.pedantic(both, rounds=1, iterations=1)
    assert len(big.rounds) > len(small.rounds)
    assert big.messages["intra_container"] > small.messages["intra_container"]


def test_fig3_engine_round_latency_breakdown(benchmark):
    """The control-plane engine's structured trace of the same increase:
    per-round simulated latency and message counts, straight from the
    shared pipeline engine (no hand instrumentation)."""
    record, pipe = benchmark.pedantic(run_increase, rounds=1, iterations=1)
    trace = pipe.control_trace.of("increase")[0]
    print_table(
        "Figure 3: increase round latency breakdown (engine trace)",
        ["Round", "Status", "Sim ms", "Messages"],
        [[r.name, r.status, f"{r.seconds * 1000:.3f}", r.messages]
         for r in trace.rounds],
    )
    benchmark.extra_info["round_breakdown"] = [r.as_dict() for r in trace.rounds]

    assert trace.status == "committed"
    executed = [r.name for r in trace.rounds if r.status != "skipped"]
    assert executed == ["request", "spawn", "complete"]
    # The trace accounts for every message the legacy record counted...
    assert trace.messages == sum(record.messages.values())
    # ...and for the protocol's whole simulated duration.
    assert trace.total == pytest.approx(record.total, rel=0.25)
    # The GM-side orchestration produced its own trace around this one.
    gm_trace = pipe.control_trace.of("gm_increase")[0]
    assert [r.name for r in gm_trace.rounds] == ["allocate", "validate", "request"]
