"""Figure 10: end-to-end pipeline latency per timestep.

Same configuration as Figure 9 (1024 sim nodes).  Paper narrative: "despite
increasing the bottleneck container, the end to end latency is increasing as
data is still spending a large amount of time in the queue.  Once the spare
resources have been used and the Bonds container is moved offline, we see a
sharp decrease in the end to end latency as the bottleneck is pruned from
the data path."

Calibration note (see EXPERIMENTS.md): our Bonds cost model at 1024 nodes is
more extreme than the authors' measured component, so at the paper's exact
configuration almost nothing exits the full pipeline before the prune — the
sharp drop reproduces, the pre-drop rise is compressed.  A companion run at
640 simulation nodes, where Bonds is slow-but-flowing, exhibits the full
rising-then-sharp-drop shape of the published figure.
"""

import pytest

from repro.simkernel import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build

from conftest import print_series, print_table


def run_1024(steps=60):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=1024, staging_nodes=24, spare=4, steps=steps)
    pipe = build(env, PipelineSpec("fig10-1024", workload=wl, builder=dict(seed=1)))
    pipe.run(settle=300)
    return pipe


def run_640(steps=60):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=640, staging_nodes=24, spare=4, steps=steps)
    stages = (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 5, upstream="helper"),
        StageSpec("csym", 6, upstream="bonds"),
        StageSpec("cna", 3, upstream="bonds", standby=True),
    )
    pipe = build(env, PipelineSpec("fig10-640", workload=wl, stages=stages,
                                   builder=dict(seed=1, overflow_occupancy=0.25)))
    pipe.run(settle=300)
    return pipe


def test_fig10_sharp_drop_at_paper_config(benchmark):
    pipe = benchmark.pedantic(run_1024, rounds=1, iterations=1)
    e2e = pipe.telemetry.get("pipeline", "end_to_end")
    print_series(
        "Figure 10: end-to-end latency (1024 sim nodes)",
        list(zip(e2e.times, e2e.values)),
        fmt="{:.0f}:{:.0f}s",
    )
    benchmark.extra_info["series"] = list(zip(e2e.times, e2e.values))
    offline_at = next(t for t, l in pipe.telemetry.events if "offline bonds" in l)
    before = [v for t, v in zip(e2e.times, e2e.values) if t <= offline_at]
    after = [v for t, v in zip(e2e.times, e2e.values) if t > offline_at + 30]
    assert after, "pipeline must keep exiting (to disk) after the prune"
    # Sharp decrease: post-prune latency is a tiny fraction of pre-prune
    # (or of the in-flight latency when nothing exited pre-prune).
    reference = max(before) if before else offline_at - 15.0
    assert max(after) < reference * 0.25


def test_fig10_rising_then_drop_companion(benchmark):
    """The full published shape, visible at 640 simulation nodes."""
    pipe = benchmark.pedantic(run_640, rounds=1, iterations=1)
    e2e = pipe.telemetry.get("pipeline", "end_to_end")
    print_series(
        "Figure 10 companion: end-to-end latency (640 sim nodes)",
        list(zip(e2e.times, e2e.values)),
        fmt="{:.0f}:{:.0f}s",
    )
    print_table(
        "Management actions",
        ["t (s)", "action"],
        [[f"{t:.0f}", label] for t, label in pipe.telemetry.events],
    )
    events = [l for _, l in pipe.telemetry.events]
    assert any("offline bonds" in l for l in events)
    offline_at = next(t for t, l in pipe.telemetry.events if "offline bonds" in l)
    before = [(t, v) for t, v in zip(e2e.times, e2e.values) if t <= offline_at]
    after = [v for t, v in zip(e2e.times, e2e.values) if t > offline_at + 30]
    # Rising: latency grows while data queues behind the bottleneck.
    assert len(before) >= 3
    assert before[-1][1] > before[0][1] * 1.2
    # Sharp drop once the bottleneck is pruned from the data path.
    assert after
    assert max(after) < before[-1][1] * 0.25


def test_fig10_exit_rate_recovers_after_prune(benchmark):
    """After the prune the pipeline keeps pace with the application again:
    one exit per output interval."""
    import numpy as np

    pipe = benchmark.pedantic(run_1024, rounds=1, iterations=1)
    e2e = pipe.telemetry.get("pipeline", "end_to_end")
    offline_at = next(t for t, l in pipe.telemetry.events if "offline bonds" in l)
    exit_times = [t for t in e2e.times if t > offline_at + 30]
    gaps = np.diff(exit_times)
    assert len(gaps) > 5
    assert np.median(gaps) == pytest.approx(15.0, rel=0.1)
