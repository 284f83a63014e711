"""Self-tests of the benchmark suite (tiny units; run with
``PYTHONPATH=src python -m pytest benchmarks/suite -q``)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare, verdict
from harness import measure
from metrics import EXTRAS, SIMULATED, Metric, end_to_end, load_metrics, per_layer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = load_metrics(SPEC)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(cwd / BENCH.relative_to(ROOT)), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke_runs():
    """One tiny traced measurement per workload (each traced unit also runs
    untraced, so both metric sets can be computed from it)."""
    return {name: measure(w, 3, 0, trace=True, units=1, reduced=True)
            for name, w in WORKLOADS.items()}


def test_benchmark_json_shape_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_emitted_with_unit(smoke_runs):
    """Every declared metric on every declared workload, non-zero where
    end-to-end; every emitted metric has a unit."""
    for w in SPEC["workloads"]:
        run = smoke_runs[w["name"]]
        e2e, layers = end_to_end({**run, "units": run["twins"]}), per_layer(run)
        for m in SPEC["end_to_end"]:
            assert e2e[m["name"]] > 0, (w["name"], m["name"])
        for m in SPEC["per_layer"]:
            assert m["name"] in layers, (w["name"], m["name"])
        extras = {m.name for m in EXTRAS if w["name"] in (m.workloads or (w["name"],))}
        assert set(e2e) - {m["name"] for m in SPEC["end_to_end"]} <= extras
        for name in (*e2e, *layers):
            assert METRICS[name].unit


def test_smoke_outputs_correct(smoke_runs):
    for name, run in smoke_runs.items():
        assert not run["problems"], (name, run["problems"])
        assert end_to_end({**run, "units": run["twins"]})["failed_frac"] == 0.0


def test_traced_schedule_identical_and_self_time_adds_up(smoke_runs):
    traced = smoke_runs["fig7_ft"]
    assert traced["checks"] == [["unit 0 traced schedule identical to untraced", True]]
    layers = per_layer(traced)
    assert abs(layers["trace.self_sum_frac"] - 1.0) < 0.05
    assert layers["simkernel.events_processed"] > 0
    assert layers["trace.overhead"] > 0


def test_measure_command_last_line():
    """The untraced benchmark command, including its repeat-seed check."""
    proc = _bench("measure", "--workload", "fig7_ft", "--seed", "2", "--smoke",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the suite must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("measure", "--workload", "fig7_ft", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_smoke_writes_comparable_file(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _bench("run", "--seed", "1", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    rows, gate_ok = compare(doc, doc, METRICS)
    assert gate_ok
    verdicts = {(r[0], r[1]): r[5] for r in rows}
    for workload in doc["workloads"]:
        assert verdicts.pop((workload, "raw_wall_s_p50")) == "reported"
        assert verdicts.pop((workload, "raw_setup_s")) == "reported"
    assert set(verdicts.values()) == {"unchanged"}


def test_compare_fails_gate_on_crashed_workload():
    """A crashed workload on either side fails the gate instead of raising,
    and the rows that could not be compared read ``missing``."""
    ok = {"correct": True, "units": 1, "attempted": 5, "failed": 0, "problems": [],
          "metrics": {"wall_s_p50": {"value": 1.0, "unit": "s"}}}
    crashed = {"correct": False, "units": 0, "attempted": 0, "failed": 1,
               "problems": ["crashed"], "metrics": {}}
    good, bad = {"workloads": {"fig7_ft": ok}}, {"workloads": {"fig7_ft": crashed}}
    rows, gate_ok = compare(good, bad, METRICS)
    assert not gate_ok and [r[5] for r in rows] == ["missing"]
    rows, gate_ok = compare(bad, good, METRICS)
    assert not gate_ok and rows == []


def test_compare_fleet_events_per_sec_regression_reads_worse():
    """BENCH_fleet.json's own numbers: the old comparator called this drop
    "speedup 1.61"; events/sec is higher-is-better, so it is worse."""
    fleet = json.loads((ROOT / "BENCH_fleet.json").read_text())
    row = fleet["baseline_comparison"]["fleet.events_per_sec"]
    before, after = row["baseline_seconds"], row["current_seconds"]
    assert round(before) == 131856 and round(after) == 81776
    rate = Metric("fleet.events_per_sec", "1/s", "higher", 0.1)
    assert verdict(rate, [before], [after])[0] == "worse"
    assert verdict(rate, [after], [before])[0] == "better"


def test_compare_verdict_rules():
    wall = METRICS["wall_s_p50"]
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdict(wall, base, base)[0] == "unchanged"
    slower = [v * 1.5 for v in base]
    assert verdict(wall, base, slower)[0] == "worse"
    faster, wins = verdict(wall, base, [v * 0.5 for v in base])
    assert faster == "better" and wins == 1.0
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    assert verdict(wall, base, noisy)[0] == "unresolved"
    rate = METRICS["sim_s_per_wall_s"]
    assert verdict(rate, base, slower)[0] == "better"
    delivered = METRICS["delivered_frac"]
    assert verdict(delivered, [1.0], [1.0])[0] == "unchanged"
    assert verdict(delivered, [1.0], [0.97])[0] == "worse"
    shed = METRICS["shed_frac"]
    assert verdict(shed, [0.0], [0.01])[0] == "worse"  # a zero bound: any worsening
    blocked = METRICS["driver_blocked_s"]
    assert verdict(blocked, [0.0], [0.005])[0] == "unchanged"  # within the 0.01 s floor
    assert verdict(blocked, [0.0], [0.05])[0] == "worse"


def test_committed_sets_agree():
    """The two committed ``run --seed 1`` sets: no worse or unresolved row,
    and every simulated outcome identical."""
    sets = [json.loads((HERE / "results" / f"set{i}.json").read_text()) for i in (1, 2)]
    rows, gate_ok = compare(*sets, METRICS)
    assert gate_ok
    assert not [r for r in rows if r[5] in ("worse", "unresolved", "missing")]
    for workload, entry in sets[0]["workloads"].items():
        for name, row in entry["metrics"].items():
            if name in SIMULATED:
                assert row["value"] == sets[1]["workloads"][workload]["metrics"][name]["value"]
