"""``BENCH_*.json`` emitter and loader.

Each bench under ``benchmarks/`` produces a flat mapping of ``metric name
-> value`` plus the perf-registry counters; this module writes them to disk
in a stable schema and reads a committed report back for a bench's own
gate.  It renders no verdict across runs: the metrics mix seconds, rates
and fractions, so "better" depends on each metric's direction, which the
benchmark suite's ``bench.py compare`` declares per metric.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def load_kernel_report(path: PathLike) -> Optional[Dict]:
    """Load a previously written report; ``None`` if absent or unreadable."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def write_kernel_report(
    path: PathLike,
    results: Dict[str, float],
    counters: Optional[Dict[str, int]] = None,
    meta: Optional[Dict] = None,
) -> Dict:
    """Write a ``BENCH_*.json`` report and return the written document."""
    path = Path(path)
    doc = {
        "schema": SCHEMA_VERSION,
        "meta": meta or {},
        "results": {k: results[k] for k in sorted(results)},
        "counters": dict(sorted((counters or {}).items())),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc
