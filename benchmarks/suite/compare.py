"""Direction-aware comparison of two ``bench.py run`` result files.

Baselines are explicit files.  For each (workload, metric) the verdict is
``better``, ``worse`` or ``unchanged`` by the metric's declared direction
and bound, or ``unresolved`` when the run-to-run spread (interquartile
range over median, of either side) is wider than the bound — unless every
sample of one side beats every sample of the other.  A gain also needs the
candidate to win at least nine in ten unit pairs (unit ``i`` of both files
saw identical inputs).  Metrics without a bound are ``reported`` only.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from metrics import Metric

#: share of paired units the candidate must win to claim a gain
WIN_SHARE = 0.9


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def _beats(metric: Metric, a: float, b: float) -> bool:
    return a < b if metric.better == "lower" else a > b


def verdict(metric: Metric, base: Sequence[float], new: Sequence[float]):
    """``(verdict, pair-win share or None)`` for one metric."""
    if metric.bound is None:
        return "reported", None
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    allowed = max(metric.bound * abs(mb), metric.floor)
    worsened = (mn - mb) if metric.better == "lower" else (mb - mn)
    pairs = list(zip(base, new))
    wins = None
    if len(pairs) > 1:
        wins = sum(_beats(metric, n, b) for b, n in pairs) / len(pairs)
    if len(base) > 1 and len(new) > 1:
        spread = max((q3b - q1b) / abs(mb) if mb else 0.0,
                     (q3n - q1n) / abs(mn) if mn else 0.0)
        separated = (all(_beats(metric, n, b) for n in new for b in base)
                     or all(_beats(metric, b, n) for n in new for b in base))
        if spread > metric.bound and not separated:
            return "unresolved", wins
    if worsened > allowed:
        return "worse", wins
    if -worsened > allowed and (wins is None or wins >= WIN_SHARE):
        return "better", wins
    return "unchanged", wins


def compare(base: dict, new: dict, metrics: Dict[str, Metric]):
    """Rows ``(workload, metric, unit, base quartiles, new quartiles,
    verdict, wins)`` and whether the candidate passes the gate: every
    workload correct on both sides, no ``worse`` row, no row that could not
    be compared, and no more failed operations than the baseline."""
    rows: List[tuple] = []
    gate_ok = True
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None or not (entry["correct"] and other["correct"]):
            gate_ok = False
        elif other["failed"] > entry["failed"]:
            gate_ok = False
        for name, row in entry["metrics"].items():
            metric = metrics[name]
            cand = other["metrics"].get(name) if other else None
            if cand is None:
                rows.append((workload, name, metric.unit, quartiles([row["value"]]),
                             None, "missing", None))
                gate_ok = False
                continue
            b = row.get("samples") or [row["value"]]
            n = cand.get("samples") or [cand["value"]]
            result, wins = verdict(metric, b, n)
            rows.append((workload, name, metric.unit, quartiles(b), quartiles(n),
                         result, wins))
            if result == "worse":
                gate_ok = False
    return rows, gate_ok


def _q(q: Optional[tuple]) -> str:
    if q is None:
        return "-"
    lo, mid, hi = q
    return f"{mid:.6g}" if lo == hi else f"{mid:.6g} [{lo:.4g}, {hi:.4g}]"


def render(rows) -> str:
    header = ("workload", "metric", "unit", "baseline median [q1, q3]",
              "candidate median [q1, q3]", "verdict", "wins")
    table = [header] + [
        (w, m, u, _q(b), _q(n), v, "-" if wins is None else f"{wins:.2f}")
        for w, m, u, b, n, v, wins in rows
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in table)
