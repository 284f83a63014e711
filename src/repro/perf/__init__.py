"""Kernel performance instrumentation.

Three small pieces, shared by the analytics kernels, the MD integrator, and
the benchmark harness:

* :mod:`repro.perf.registry` — wall-clock kernel timers and event counters
  (cell-list rebuilds, cache hits, ...) accumulated in a process-global
  registry that benches snapshot and reset;
* :mod:`repro.perf.report` — the ``BENCH_*.json`` emitter and loader, so
  bench results are machine-readable across PRs;
* :mod:`repro.perf.cache` — a snapshot-keyed kernel cache letting pipeline
  stages that re-derive the same intermediate (CSym and CNA both need the
  Bonds adjacency) share one computation per timestep.
"""

from repro.perf.registry import (
    REGISTRY,
    KernelStats,
    PerfRegistry,
    count,
    counter,
    reset,
    snapshot,
    timed,
    timer,
)
from repro.perf.report import load_kernel_report, write_kernel_report
from repro.perf.cache import KERNEL_CACHE, SnapshotKernelCache

__all__ = [
    "KERNEL_CACHE",
    "KernelStats",
    "PerfRegistry",
    "REGISTRY",
    "SnapshotKernelCache",
    "count",
    "counter",
    "load_kernel_report",
    "reset",
    "snapshot",
    "timed",
    "timer",
    "write_kernel_report",
]
