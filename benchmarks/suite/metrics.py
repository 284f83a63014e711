"""Metric definitions, and their values computed from unit records.

End-to-end metrics are what a researcher (or CI) running simulated staging
experiments sees: how fast a study finishes in wall-clock time, and what
the simulated pipeline delivered.  Per-layer metrics split the cost across
the ``repro`` packages and come from the traced run only.

``BENCHMARK.json`` is the one place a declared metric's unit, direction and
bound are written; :func:`load_metrics` reads them from there.  This module
defines only the metrics the suite reports beyond those (:data:`EXTRAS`).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from instrument import LAYERS, OTHER

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: end-to-end only: how far the median may worsen before a compare
    #: reads "worse" — ``bound`` as a share of the baseline, at least
    #: ``floor`` in the metric's unit (0 and 0: any worsening); None: the
    #: metric is reported but not judged
    bound: Optional[float] = None
    floor: float = 0.0
    #: the workloads that emit it; None: every workload
    workloads: Optional[Tuple[str, ...]] = None


#: ``hostspeed.reference_once()`` in a quiet period on the machine the
#: README names: calibrated timings are seconds at that host speed
REFERENCE_S = 0.020

_SLA = ("overload_arms", "fleet32")

#: reported beyond the declared metrics: the uncalibrated timings, and the
#: simulated outcomes that are zero on some workload or defined on only
#: some (a declared end-to-end metric is emitted, non-zero, everywhere)
EXTRAS = (
    Metric("raw_wall_s_p50", "s", "lower"),
    Metric("raw_setup_s", "s", "lower"),
    Metric("sim_latency_p50_s", "sim_s", "lower", 0.01),
    Metric("sim_latency_p90_s", "sim_s", "lower", 0.01),
    Metric("shed_frac", "frac", "lower", 0.0),
    Metric("sla_compliance", "frac", "higher", 0.0, workloads=_SLA),
    Metric("driver_blocked_s", "sim_s", "lower", 0.01, floor=0.01),
    Metric("time_in_degraded_s", "sim_s", "lower", 0.01, workloads=_SLA),
    Metric("sim_mttr_s_p50", "sim_s", "lower", 0.01, workloads=("dst_sweep",)),
    Metric("failed_frac", "frac", "lower", 0.0),
) + tuple(
    Metric(f"{layer}.self_s", "s", "lower") for layer in LAYERS + (OTHER,)
) + tuple(
    # layers that own no callbacks: their code runs inside other frames
    Metric(f"{layer}.{kind}", unit, "lower")
    for layer in ("smartpointer", "recording")
    for kind, unit in (("self_frac", "frac"), ("events", "count"))
) + (
    Metric("spec.events", "count", "lower"),
    Metric("datatap.pull_admit_wait_sim_s", "sim_s", "lower"),
    Metric("containers.bottleneck_residency_sim_s_p50", "sim_s", "lower"),
    Metric("controlplane.sim_s_per_run", "sim_s", "lower"),
    Metric("adios.catchup_sim_s", "sim_s", "lower"),
    Metric("dst.s_per_sweep", "s", "lower"),
)

#: simulated outcomes: identical whenever the inputs are identical
SIMULATED = frozenset({
    "sim_latency_p50_s", "sim_latency_p90_s", "delivered_frac", "shed_frac",
    "sla_compliance", "driver_blocked_s", "time_in_degraded_s", "sim_mttr_s_p50",
    "failed_frac",
})


def load_spec(path: Path = BENCHMARK_JSON) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_metrics(spec: Optional[dict] = None) -> Dict[str, Metric]:
    """Every metric by name: the declared ones as ``BENCHMARK.json`` (or
    ``spec``) states them, then :data:`EXTRAS`."""
    spec = load_spec() if spec is None else spec
    declared = [Metric(m["name"], m["unit"], m["better"], m.get("bound"))
                for m in spec["end_to_end"] + spec["per_layer"]]
    return {m.name: m for m in (*declared, *EXTRAS)}


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_samples(units: List[dict]) -> Dict[str, List[float]]:
    """Per-unit samples behind the median timing metrics, paired by unit
    index.  Calibrated times scale a unit's run phase and set-up to the
    reference host speed: times ``REFERENCE_S`` over the reference time
    during each."""
    run_s = [u["run_s"] * REFERENCE_S / u["reference_s"] for u in units]
    return {
        "wall_s_p50": run_s,
        "sim_s_per_wall_s": [u["sim_s"] / t for u, t in zip(units, run_s)],
        "setup_s": [u["setup_s"] * REFERENCE_S / u["setup_reference_s"] for u in units],
        "raw_wall_s_p50": [u["run_s"] for u in units],
        "raw_setup_s": [u["setup_s"] for u in units],
    }


def tally(run: dict) -> Tuple[int, int]:
    """(attempted, failed) operations of one measurement: timesteps, runs,
    transactions, DST seeds and gates of every unit, plus the run's own
    repeat-seed / traced-schedule checks."""
    units = run["units"]
    attempted = sum(u["attempted"] for u in units) + len(run["checks"])
    failed = sum(u["failed"] for u in units) + sum(1 for _, ok in run["checks"] if not ok)
    return attempted, failed


def end_to_end(run: dict) -> Dict[str, float]:
    """End-to-end metric values of one untraced measurement: every metric
    not confined to other workloads."""
    units = run["units"]
    pool = lambda key: [v for u in units for v in u[key]]  # noqa: E731
    total = lambda key: sum(u[key] for u in units)  # noqa: E731
    attempted, failed = tally(run)
    values = {name: _median(v) for name, v in unit_samples(units).items()}
    values.update({
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_latency_p50_s": _percentile(pool("latency"), 50),
        "sim_latency_p90_s": _percentile(pool("latency"), 90),
        "delivered_frac": _ratio(total("delivered"), total("expected")),
        "shed_frac": _ratio(total("shed"), total("expected")),
        "sla_compliance": _ratio(total("in_sla"), total("sla_steps")),
        "driver_blocked_s": _median([u["blocked_s"] for u in units]),
        "time_in_degraded_s": _median([u["degraded_s"] for u in units]),
        "sim_mttr_s_p50": _median(pool("mttr")),
        "failed_frac": _ratio(failed, attempted),
    })
    only = {m.name: m.workloads for m in EXTRAS if m.workloads is not None}
    return {name: value for name, value in values.items()
            if run["workload"] in only.get(name, (run["workload"],))}


def _counter(units, *names, prefix: str = "", suffix: str = "") -> float:
    """Sum of counters over units: exact names, or every counter matching
    ``prefix``...``suffix``."""
    out = 0
    for u in units:
        for key, value in u["counters"].items():
            if key in names or (prefix and key.startswith(prefix) and key.endswith(suffix)):
                out += value
    return out


def per_layer(run: dict) -> Dict[str, float]:
    """Per-layer metric values of one traced measurement (per unit means)."""
    units = run["units"]
    n = len(units)
    wall = sum(u["wall_s"] for u in units)
    out: Dict[str, float] = {}
    for layer in LAYERS + (OTHER,):
        self_s = sum(u["layers"][layer]["self_s"] for u in units)
        out[f"{layer}.self_frac"] = self_s / wall
        out[f"{layer}.self_s"] = self_s / n
        out[f"{layer}.events"] = sum(u["layers"][layer]["events"] for u in units) / n
    spans = lambda *names: sum(u["spans"].get(k, 0) for u in units for k in names)  # noqa: E731
    span_s = lambda name: sum(u["span_s"][name] for u in units)  # noqa: E731
    events = sum(u["events"] for u in units)
    sends = spans("evpath.send", "evpath.send.process")
    suspects = _counter(units, "faults.suspects")
    admit_calls = sum(u["timers"].get("datatap.pull_admit_wait", [0, 0])[0] for u in units)
    admit_wait = sum(u["timers"].get("datatap.pull_admit_wait", [0, 0])[1] for u in units)
    cp_runs = _counter(units, prefix="controlplane.", suffix=".runs")
    cp_sim = sum(v[1] for u in units for k, v in u["timers"].items()
                 if k.startswith("controlplane.") and k.endswith(".sim_seconds"))
    requests = spans("fleet.request")
    sweeps = spans("dst.sweep")
    builds = spans("spec.build")
    out.update({
        "simkernel.events_processed": events / n,
        "simkernel.us_per_event": 1e6 * _ratio(out["simkernel.self_s"] * n, events),
        "simkernel.heap_peak": max(u["heap_peak"] for u in units),
        "evpath.sends": sends / n,
        "evpath.process_path_frac": _ratio(spans("evpath.send.process"), sends),
        "evpath.retries": _counter(units, "evpath.retries") / n,
        "faults.heartbeats_per_step": _ratio(_counter(units, "faults.heartbeats_sent"),
                                             sum(u["expected"] for u in units)),
        "faults.heartbeat_send_frac": _ratio(_counter(units, "faults.heartbeats_sent"),
                                             sends),
        "faults.false_positive_frac": _ratio(_counter(units, "faults.false_positives"),
                                             suspects),
        "cluster.transfers": spans("cluster.transfer") / n,
        "cluster.hops_calls": spans("cluster.hops") / n,
        "cluster.route_s": span_s("cluster.hops") / n,
        "datatap.pulls_admitted": _counter(units, "datatap.pulls_admitted") / n,
        "datatap.meta_deferred": _counter(units, "datatap.meta_deferred") / n,
        "datatap.pull_admit_wait_sim_s": _ratio(admit_wait, admit_calls),
        "containers.completions": sum(u["completions"] for u in units) / n,
        "containers.bottleneck_residency_sim_s_p50":
            _percentile([v for u in units for v in u["bottleneck"]], 50),
        "controlplane.runs": cp_runs / n,
        "controlplane.rounds": _counter(units, prefix="controlplane.", suffix=".rounds") / n,
        "controlplane.aborted_frac": _ratio(
            _counter(units, prefix="controlplane.", suffix=".aborts"), cp_runs),
        "controlplane.sim_s_per_run": _ratio(cp_sim, cp_runs),
        "overload.escalations": _counter(units, "overload.escalations") / n,
        "overload.recoveries": _counter(units, "overload.recoveries") / n,
        "overload.shed": _counter(units, "overload.shed") / n,
        "analytics.signals": _counter(units, "analytics.signals") / n,
        "adios.spilled": _counter(units, "failover.spilled") / n,
        "adios.replayed": _counter(units, "failover.replayed") / n,
        "adios.catchup_sim_s": _median([v for u in units for v in u["catchup_s"]]),
        "fleet.arbiter_requests": requests / n,
        "fleet.denied_frac": _ratio(
            _counter(units, prefix="fleet.", suffix=".denials"), requests),
        "dst.sweeps": sweeps / n,
        "dst.s_per_sweep": _ratio(span_s("dst.sweep"), sweeps),
        "spec.build_calls": builds / n,
        "spec.s_per_build": _ratio(span_s("spec.build"), builds),
        "trace.overhead": _median([u["wall_s"] / u["untraced_wall_s"] for u in units]),
        "trace.self_sum_frac": sum(sum(lay["self_s"] for lay in u["layers"].values())
                                   for u in units) / wall,
    })
    return out
