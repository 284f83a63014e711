"""The staging-pipeline benchmark: five workloads, end-to-end and per-layer
metrics, a traced run, and a direction-aware compare.

Commands (from the repository root; the script puts ``src`` on the path):

    python benchmarks/suite/bench.py run --seed 1 --out set1.json
    python benchmarks/suite/bench.py trace --seed 1
    python benchmarks/suite/bench.py compare set1.json set2.json
    python benchmarks/suite/bench.py measure --workload fig7_ft --seed 1 \\
        --seconds 20 --trace 0

``measure`` is one run of one workload in this process; its last stdout
line is a JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics ``BENCHMARK.json`` declares (end-to-end untraced,
per-layer traced).  ``run`` and ``trace`` start one ``measure`` subprocess
per workload, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
#: wall-time cap for one ``measure`` subprocess
MEASURE_TIMEOUT_S = 600


def _import_program():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"bench: cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported repro from {repro.__file__}, not from {SRC}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -- measure -----------------------------------------------------------------------


def cmd_measure(args) -> int:
    from harness import measure
    from metrics import end_to_end, load_metrics, load_spec, per_layer, tally
    from workloads import WORKLOADS

    spec = load_spec()
    metrics = load_metrics(spec)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    run = measure(workload, args.seed, seconds, trace,
                  units=1 if args.smoke else args.units,
                  reduced=args.smoke, spans_path=args.spans)
    values = per_layer(run) if trace else end_to_end(run)
    attempted, failed = tally(run)
    for name, value in values.items():
        print(f"{workload.name} {name} {_fmt(value)} {metrics[name].unit}")
    for problem in run["problems"]:
        print(f"{workload.name} FAILED {problem}")
    run["metrics"] = values
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(run, fh)
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [name for name in declared if name not in values]
    if missing:
        sys.exit(f"bench: declared metrics not measured: {missing}")
    correct = not run["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": metrics[name].unit}
                    for name in declared},
    }))
    return 0 if correct else 1


def _measure_subprocess(workload: str, seed: int, extra: list) -> dict:
    """Run ``measure`` for one workload in a fresh interpreter; stream its
    metric lines and return its full record (None if it crashed)."""
    with tempfile.NamedTemporaryFile(suffix=".json", dir=OUT_DIR, delete=False) as fh:
        record_path = fh.name
    try:
        cmd = [sys.executable, str(HERE / "bench.py"), "measure", "--workload", workload,
               "--seed", str(seed), "--record", record_path, *extra]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=MEASURE_TIMEOUT_S)
        for line in proc.stdout.splitlines()[:-1]:
            print(line, flush=True)
        if os.path.getsize(record_path) == 0:
            return None
        with open(record_path) as fh:
            return json.load(fh)
    finally:
        os.unlink(record_path)


def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


# -- run -------------------------------------------------------------------------------


def cmd_run(args) -> int:
    from metrics import load_metrics, tally, unit_samples
    from workloads import WORKLOADS

    metrics = load_metrics()
    OUT_DIR.mkdir(exist_ok=True)
    doc = {"schema": "benchmarks/suite/run/1", "seed": args.seed, "smoke": args.smoke,
           "machine": _machine(), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        extra = ["--trace", "0"]
        extra += ["--smoke"] if args.smoke else ["--units", str(WORKLOADS[name].units)]
        run = _measure_subprocess(name, args.seed, extra)
        if run is None:
            print(f"{name} FAILED measure subprocess crashed")
            doc["workloads"][name] = {"correct": False, "units": 0, "attempted": 0,
                                      "failed": 1, "problems": ["crashed"], "metrics": {}}
            ok = False
            continue
        units = run["units"]
        attempted, failed = tally(run)
        entry = {
            "correct": not run["problems"],
            "units": len(units),
            "attempted": attempted,
            "failed": failed,
            "problems": run["problems"],
            "metrics": {},
        }
        samples = unit_samples(units)
        for metric, value in run["metrics"].items():
            row = {"value": value, "unit": metrics[metric].unit}
            if metric in samples:
                row["samples"] = samples[metric]
            entry["metrics"][metric] = row
        doc["workloads"][name] = entry
        ok = ok and entry["correct"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print("run: all outputs correct" if ok else "run: FAILED correctness checks")
    return 0 if ok else 1


# -- trace -----------------------------------------------------------------------------


def cmd_trace(args) -> int:
    from instrument import LAYERS, OTHER
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS)
    results = {}
    for name in names:
        extra = ["--trace", "1", "--units", "1",
                 "--spans", str(OUT_DIR / f"spans-{name}.json")]
        if args.smoke:
            extra.append("--smoke")
        run = _measure_subprocess(name, args.seed, extra)
        results[name] = run
    ok = all(r is not None and not r["problems"] for r in results.values())
    print()
    print("self time share of the traced unit (events = callbacks dispatched)")
    print(f"{'layer':<14}" + "".join(f"{n:>22}" for n in names))
    for layer in LAYERS + (OTHER,):
        cells = []
        for name in names:
            run = results[name]
            if run is None:
                cells.append(f"{'-':>22}")
                continue
            m = run["metrics"]
            cells.append(f"{m[layer + '.self_frac']:>11.1%} {m[layer + '.events']:>10.0f}")
        print(f"{layer:<14}" + "".join(cells))
    for key in ("trace.overhead", "trace.self_sum_frac"):
        print(f"{key:<14}" + "".join(
            f"{results[n]['metrics'][key]:>22.3f}" if results[n] else f"{'-':>22}"
            for n in names))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({n: r and {"metrics": r["metrics"], "checks": r["checks"],
                                 "problems": r["problems"]}
                       for n, r in results.items()}, fh, indent=1)
    print("trace: schedules identical" if ok else "trace: FAILED")
    return 0 if ok else 1


# -- compare ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    from compare import compare, render
    from metrics import load_metrics

    metrics = load_metrics()
    with open(args.baseline) as fh:
        base = json.load(fh)
    status = 0
    for path in args.candidates:
        with open(path) as fh:
            rows, gate_ok = compare(base, json.load(fh), metrics)
        print(f"== {args.baseline} -> {path}")
        print(render(rows))
        if not gate_ok:
            status = 1
    return status


def main(argv=None) -> int:
    _import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one run of one workload (the benchmark command)")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   help="closed-loop measuring time (default: BENCHMARK.json's "
                        "run_seconds; ignored with --units)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--units", type=int, help="run exactly this many units")
    p.add_argument("--smoke", action="store_true", help="one tiny unit")
    p.add_argument("--record", help="write the full measurement to this JSON file")
    p.add_argument("--spans", help="write the traced spans to this JSON file")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("run", help="every workload, untraced; prints, checks, writes JSON")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="result file")
    p.add_argument("--smoke", action="store_true", help="one tiny unit per workload")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace", help="one traced unit per workload: per-layer table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="per-layer result file")
    p.add_argument("--smoke", action="store_true", help="one tiny unit per workload")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("compare", help="direction-aware compare of run files")
    p.add_argument("baseline")
    p.add_argument("candidates", nargs="+")
    p.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
