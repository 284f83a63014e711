"""Figure 9: container latency, 1024 simulation + 24 staging nodes (4 spare).

Paper narrative: at this scale the Bonds container cannot be made to keep up
with any available resources.  The runtime grants the spares, recognizes the
impending queue overflow, and moves the Bonds and CSym containers offline —
preventing the pipeline from blocking the application.
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build

from conftest import print_series, print_table


def run(steps=60):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=1024, staging_nodes=24, spare=4, steps=steps)
    pipe = build(env, PipelineSpec("fig9", workload=wl, builder=dict(seed=1)))
    pipe.run(settle=300)
    return pipe


def test_fig9_offline_decision(benchmark):
    pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    occ = pipe.telemetry.get("bonds", "buffer_occupancy")
    print_series(
        "Figure 9: upstream buffer occupancy feeding Bonds",
        list(zip(occ.times, occ.values)),
        fmt="{:.0f}:{:.2f}",
    )
    print_table(
        "Management actions",
        ["t (s)", "action"],
        [[f"{t:.0f}", label] for t, label in pipe.telemetry.events],
    )
    benchmark.extra_info["actions"] = pipe.global_manager.actions_taken
    actions = pipe.global_manager.actions_taken

    # Spares first, offline only after they are exhausted.
    assert "increase bonds +4" in actions
    assert actions.index("increase bonds +4") < actions.index("offline bonds")
    # The paper: "moved the Bonds and Csym containers offline".
    assert pipe.containers["bonds"].offline
    assert pipe.containers["csym"].offline
    # Essential aggregation stays up and streams to disk.
    assert not pipe.containers["helper"].offline
    assert pipe.containers["helper"].completions == 60
    # The decision achieved its goal: the application never blocked.
    assert pipe.driver.blocked_time == 0.0


def test_fig9_occupancy_rises_until_offline(benchmark):
    pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    occ = pipe.telemetry.get("bonds", "buffer_occupancy")
    offline_at = next(t for t, l in pipe.telemetry.events if "offline bonds" in l)
    before = [v for t, v in zip(occ.times, occ.values) if t <= offline_at]
    # Rising trend up to the offline decision.
    assert before[-1] > before[0]
    assert before[-1] >= 0.3  # pressure was real


def test_fig9_offline_output_labeled_with_provenance(benchmark):
    """Offline data carries processing provenance so post-processing knows
    which analytics still need to run (Section III-D)."""
    pipe = benchmark.pedantic(run, rounds=1, iterations=1)
    helper_files = [f for f in pipe.fs.files if f.name.startswith("helper.")]
    flushed = [f for f in pipe.fs.files if ".flush." in f.name]
    rows = [[f.name, f.attributes["provenance"], f.attributes.get("incomplete_pipeline")]
            for f in (helper_files[:3] + flushed[:3])]
    print_table("Offline output provenance (sample)",
                ["file", "provenance", "incomplete"], rows)
    assert helper_files
    assert all(f.attributes["provenance"] == ["helper"] for f in helper_files)
    assert all(f.attributes["incomplete_pipeline"] for f in helper_files)
