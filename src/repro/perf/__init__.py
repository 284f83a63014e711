"""Kernel performance instrumentation.

Two small pieces, shared by the analytics kernels, the MD integrator, and
the benchmark suite:

* :mod:`repro.perf.registry` — wall-clock kernel timers and event counters
  (cell-list rebuilds, cache hits, ...) accumulated in a process-global
  registry that the benchmark suite snapshots and resets;
* :mod:`repro.perf.cache` — a snapshot-keyed kernel cache letting pipeline
  stages that re-derive the same intermediate (CSym and CNA both need the
  Bonds adjacency) share one computation per timestep.
"""

from repro.perf.registry import REGISTRY, KernelStats, PerfRegistry
from repro.perf.cache import KERNEL_CACHE, SnapshotKernelCache

__all__ = [
    "KERNEL_CACHE",
    "KernelStats",
    "PerfRegistry",
    "REGISTRY",
    "SnapshotKernelCache",
]
