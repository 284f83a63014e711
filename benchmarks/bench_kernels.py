"""Kernel micro-benchmark: pairs / CSP / CNA / MD-step across atom counts.

Times the vectorized analytics kernels against the seed implementations
(kept in-tree as ``_reference_*``) on hexagonal plates of n ~ {1k, 4k, 16k}
atoms, runs short MD segments in both neighbour-list modes to record
cell-list rebuild counts, and emits everything — timings, perf counters
and speedups vs the seed kernels — to ``BENCH_kernels.json`` at the repo
root via :mod:`repro.perf.report`.

The speedup floor asserted here (>= 5x at n = 4096 for ``CellList.pairs``
and ``central_symmetry``) is the PR's acceptance bar; equivalence against
the reference kernels is asserted on every size the references can afford.

Smoke mode for CI: ``BENCH_SMOKE=1`` shrinks sizes to n ~ 1k and skips the
speedup-floor assertions (shared-runner timings are too noisy to gate on).

Run standalone with ``PYTHONPATH=src python benchmarks/bench_kernels.py``.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.lammps import MDSystem, VelocityVerlet, hex_lattice
from repro.lammps.crack import BOND_CUTOFF
from repro.lammps.neighbor import CellList
from repro.perf.cache import KERNEL_CACHE
from repro.perf.registry import REGISTRY
from repro.perf.report import write_kernel_report
from repro.smartpointer.cna import common_neighbor_analysis
from repro.smartpointer.csym import central_symmetry, _reference_central_symmetry

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
SIZES = (1024,) if SMOKE else (1024, 4096, 16384)
#: the seed kernels are too slow to time beyond this
REFERENCE_MAX_N = 4096
CSYM_CUTOFF = 1.5
MD_STEPS = 20 if SMOKE else 100
MD_MAX_N = 4096
SPEEDUP_FLOOR = 5.0
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _plate(n):
    side = max(2, int(round(np.sqrt(n))))
    return hex_lattice(side, side)[0]


def _best(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        KERNEL_CACHE.clear()  # time the kernel, not the snapshot cache
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _md_segment(pos, mode):
    system = MDSystem(pos.copy())
    system.thermalize(0.02, np.random.default_rng(11))
    integ = VelocityVerlet(system, dt=0.005, neighbor_mode=mode)
    t0 = time.perf_counter()
    integ.step(MD_STEPS)
    return (time.perf_counter() - t0) / MD_STEPS, integ.rebuild_count


def run_kernel_suite():
    """Time every kernel; returns (results, counters, speedups)."""
    results, counters, speedups = {}, {}, {}
    for n in SIZES:
        pos = _plate(n)
        label = f"n{len(pos)}"
        cells = CellList(pos, BOND_CUTOFF)

        results[f"pairs.vectorized.{label}"] = _best(cells.pairs)
        results[f"csym.vectorized.{label}"] = _best(
            lambda: central_symmetry(pos, 6, CSYM_CUTOFF)
        )
        pairs = cells.pairs()
        counters[f"npairs.{label}"] = int(len(pairs))
        results[f"cna.labels.{label}"] = _best(
            lambda: common_neighbor_analysis(pairs, len(pos)), repeats=1
        )

        if len(pos) <= REFERENCE_MAX_N:
            results[f"pairs.reference.{label}"] = _best(cells._reference_pairs)
            results[f"csym.reference.{label}"] = _best(
                lambda: _reference_central_symmetry(pos, 6, CSYM_CUTOFF), repeats=1
            )
            speedups[f"pairs.{label}"] = (
                results[f"pairs.reference.{label}"]
                / results[f"pairs.vectorized.{label}"]
            )
            speedups[f"csym.{label}"] = (
                results[f"csym.reference.{label}"]
                / results[f"csym.vectorized.{label}"]
            )
            # Equivalence: identical pair sets, CSP within 1e-9.
            ref_pairs = cells._reference_pairs()
            assert {tuple(p) for p in pairs} == {tuple(p) for p in ref_pairs}
            KERNEL_CACHE.clear()
            csp = central_symmetry(pos, 6, CSYM_CUTOFF)
            ref_csp = _reference_central_symmetry(pos, 6, CSYM_CUTOFF)
            assert np.allclose(csp, ref_csp, rtol=0.0, atol=1e-9)

        if len(pos) <= MD_MAX_N:
            for mode in ("verlet", "interval"):
                seconds, rebuilds = _md_segment(pos, mode)
                results[f"md.step_{mode}.{label}"] = seconds
                counters[f"md.rebuilds_{mode}.{label}"] = rebuilds
    return results, counters, speedups


def emit_report(results, counters, speedups):
    perf = REGISTRY.snapshot()
    counters = {**counters, **perf["counters"]}
    doc = write_kernel_report(
        REPORT_PATH,
        results,
        counters=counters,
        meta={
            "bench": "bench_kernels",
            "smoke": SMOKE,
            "sizes": list(SIZES),
            "md_steps": MD_STEPS,
            "speedups_vs_seed": {k: round(v, 2) for k, v in sorted(speedups.items())},
        },
    )
    return doc


def _check_floors(speedups, counters):
    """The acceptance bars; skipped in smoke mode (noisy CI runners)."""
    if SMOKE:
        return
    for key in ("pairs.n4096", "csym.n4096"):
        assert speedups[key] >= SPEEDUP_FLOOR, (
            f"{key}: {speedups[key]:.1f}x < {SPEEDUP_FLOOR}x vs the seed kernel"
        )
    # Verlet-skin reuse must rebuild on well under a quarter of MD steps.
    assert counters["md.rebuilds_verlet.n4096"] < 0.25 * MD_STEPS
    assert counters["md.rebuilds_interval.n4096"] >= MD_STEPS / 10


def test_kernel_microbench(benchmark):
    from conftest import print_table

    results, counters, speedups = benchmark.pedantic(
        run_kernel_suite, rounds=1, iterations=1
    )
    doc = emit_report(results, counters, speedups)
    benchmark.extra_info.update(
        {
            "report": str(REPORT_PATH),
            "speedups_vs_seed": doc["meta"]["speedups_vs_seed"],
        }
    )
    rows = [
        [name, f"{seconds * 1e3:.3f}"] for name, seconds in sorted(results.items())
    ]
    print_table("Kernel micro-bench", ["Kernel", "ms"], rows)
    print_table(
        "Speedup vs seed kernels",
        ["Kernel", "Speedup"],
        [[k, f"{v:.1f}x"] for k, v in sorted(speedups.items())],
    )
    _check_floors(speedups, counters)


def main():
    results, counters, speedups = run_kernel_suite()
    emit_report(results, counters, speedups)
    for name, seconds in sorted(results.items()):
        print(f"{name:32s} {seconds * 1e3:10.3f} ms")
    for name, value in sorted(speedups.items()):
        print(f"{name:32s} {value:9.1f}x vs seed")
    _check_floors(speedups, counters)
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
