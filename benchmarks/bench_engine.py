"""Engine bench: the optimized event loop vs the frozen pre-PR engine.

Measures both sides in the same interpreter on the same machine — the
optimized :class:`repro.simkernel.Environment` against
:class:`repro.simkernel._reference.ReferenceEnvironment`, the engine as it
stood before the fast path landed — so every speedup in
``BENCH_engine.json`` is a true within-run comparison, not a cross-machine
guess.

Micro benches (events retired per second, and µs per event):

* ``raw_ticker`` — one process yielding plain timeouts; the generator
  send/heap floor every other number sits on.
* ``timeout_drain`` — a heap of abandoned (cancelled) timers drained by
  ``run()``.  The pre-PR engine processes each as a dead no-op; the
  optimized engine tombstone-skips and bulk-compacts them.  This is the
  raw-timeout microbench the ≥10× acceptance floor applies to.
* ``timeout_churn`` — ``any_of([fast, slow])`` races in a loop, the
  request-timeout pattern: losers are cancelled organically by the
  condition pruning.
* ``messenger_send`` — control-plane sends over a real machine/NIC model:
  the ``_FastSend`` chain vs the process-per-message send frozen in
  :mod:`repro.evpath._reference`.

Pipeline benches: simulated seconds per wall second for Figure-7-shaped
runs at two sizes, both engines.

The report (``schema/meta/results/counters``, like every other
``BENCH_*.json``) backs a regression gate: the within-run
``*_speedup_vs_reference`` ratios are machine-independent, so CI fails if
any drops below 80% of the committed baseline's ratio — i.e. if the fast
path loses more than 20% of its advantage.  ``BENCH_SMOKE=1`` shrinks the
workloads for CI.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_engine.py``.
"""

import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path

from repro.simkernel import Environment
from repro.simkernel._reference import ReferenceEnvironment
from repro.cluster import Machine
from repro.evpath import Messenger
from repro.evpath import _reference as _reference_send
from repro.evpath import channel as _channel
from repro.evpath.messages import Message, MessageType, validate_message
from repro.spec import PipelineSpec, WorkloadSpec, build
from repro.perf.registry import REGISTRY
from repro.perf.report import load_kernel_report, write_kernel_report


def _pre_pr_send(self, src_node, to, message):
    """The messenger send as it was before the fast path: one process and
    one eagerly formatted f-string name per message."""
    validate_message(message)
    dest = self.lookup(to)
    return self.env.process(
        _reference_send.send(self, src_node, dest, message),
        name=f"send {message.mtype.value}",
    )


@contextmanager
def pre_pr_messenger():
    """Force the process-per-message send path, so the 'reference' side of
    every comparison is the whole pre-PR stack, not just the pre-PR loop."""
    orig = _channel.Messenger.send
    _channel.Messenger.send = _pre_pr_send
    try:
        yield
    finally:
        _channel.Messenger.send = orig


@contextmanager
def _noop():
    yield

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
REPEATS = 2 if SMOKE else 3
N_TICK = 20_000 if SMOKE else 200_000
N_DRAIN = 20_000 if SMOKE else 200_000
N_CHURN = 2_000 if SMOKE else 20_000
N_SEND = 1_000 if SMOKE else 8_000
PIPELINES = (
    ("fig7_small", dict(sim_nodes=128, staging_nodes=13, spare=0,
                        steps=6 if SMOKE else 12)),
    ("fig7_256", dict(sim_nodes=256, staging_nodes=13, spare=0,
                      steps=4 if SMOKE else 20)),
)
#: acceptance floor: timeout_drain must beat the pre-PR engine by this much
DRAIN_SPEEDUP_FLOOR = 10.0
#: CI gate: a speedup ratio may not fall below this fraction of the
#: committed baseline's ratio
GATE_FRACTION = 0.8
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

ENGINES = (("optimized", Environment), ("reference", ReferenceEnvironment))


def _best(fn, repeats=REPEATS):
    """Best wall-clock of ``repeats`` runs of ``fn() -> events`` as
    (seconds, events)."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        events = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, events)
    return best


# -- micro workloads --------------------------------------------------------


def _publish(env):
    """Mirror engine counters into the registry (optimized engine only)."""
    publish = getattr(env, "publish_perf", None)
    if publish is not None:
        publish()


def raw_ticker(env_cls):
    env = env_cls()

    def ticker(env):
        for _ in range(N_TICK):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    _publish(env)
    return N_TICK


def timeout_drain(env_cls):
    env = env_cls()
    timers = [env.timeout(float(i % 997) + 1.0) for i in range(N_DRAIN)]
    for t in timers:
        t.callbacks.clear()
        env.cancel(t)  # no-op on the reference engine: stays a dead no-op
    t0 = time.perf_counter()
    env.run()
    dt = time.perf_counter() - t0
    _publish(env)
    return N_DRAIN, dt


def timeout_churn(env_cls):
    env = env_cls()

    def racer(env):
        for _ in range(N_CHURN):
            fast = env.timeout(0.1)
            slow = env.timeout(100.0)  # the loser: lives ~1000 rounds
            yield env.any_of([fast, slow])

    env.process(racer(env))
    env.run()
    _publish(env)
    # 3 events per round (fast, slow, condition) plus process bookkeeping
    return 3 * N_CHURN


def messenger_send(env_cls):
    env = env_cls()
    machine = Machine(env, num_nodes=8, cores_per_node=2)
    messenger = Messenger(env, machine.network)
    eps = [messenger.endpoint(machine.nodes[i + 4], f"d{i}") for i in range(4)]

    def drainer(env, ep, n):
        for _ in range(n):
            yield ep.recv()

    def sender(env, src, to):
        for _ in range(N_SEND // 4):
            yield messenger.send(src, to, Message(MessageType.ACK, "bench"))

    for i in range(4):
        env.process(drainer(env, eps[i], N_SEND // 4))
        env.process(sender(env, machine.nodes[i], f"d{i}"))
    env.run()
    _publish(env)
    assert messenger.messages_sent == (N_SEND // 4) * 4
    return messenger.messages_sent


# -- suites ----------------------------------------------------------------


def run_micro_suite():
    results = {}
    for bench_name, workload in (
        ("raw_ticker", raw_ticker),
        ("timeout_churn", timeout_churn),
        ("messenger_send", messenger_send),
    ):
        for engine_name, env_cls in ENGINES:
            guard = pre_pr_messenger if engine_name == "reference" else _noop
            with guard():
                seconds, events = _best(lambda: workload(env_cls))
            results[f"{bench_name}_events_per_sec_{engine_name}"] = events / seconds
            results[f"{bench_name}_us_per_event_{engine_name}"] = 1e6 * seconds / events

    # timeout_drain times only the drain, not the heap construction
    for engine_name, env_cls in ENGINES:
        best = None
        for _ in range(REPEATS):
            events, seconds = timeout_drain(env_cls)
            if best is None or seconds < best[1]:
                best = (events, seconds)
        events, seconds = best
        results[f"timeout_drain_events_per_sec_{engine_name}"] = events / seconds
        results[f"timeout_drain_us_per_event_{engine_name}"] = 1e6 * seconds / events

    for bench_name in ("raw_ticker", "timeout_drain", "timeout_churn", "messenger_send"):
        results[f"{bench_name}_speedup_vs_reference"] = (
            results[f"{bench_name}_events_per_sec_optimized"]
            / results[f"{bench_name}_events_per_sec_reference"]
        )
    return results


def run_pipeline_suite():
    results = {}
    for label, cfg in PIPELINES:
        for engine_name, env_cls in ENGINES:
            def one_run():
                env = env_cls()
                spec = PipelineSpec(label, workload=WorkloadSpec(**cfg),
                                    builder=dict(seed=1))
                pipe = build(env, spec)
                assert pipe.run(settle=120)
                return env.now

            guard = pre_pr_messenger if engine_name == "reference" else _noop
            with guard():
                seconds, sim_seconds = _best(one_run)
            results[f"pipeline_{label}_simsec_per_wallsec_{engine_name}"] = (
                sim_seconds / seconds
            )
            results[f"pipeline_{label}_wall_seconds_{engine_name}"] = seconds
        results[f"pipeline_{label}_speedup_vs_reference"] = (
            results[f"pipeline_{label}_simsec_per_wallsec_optimized"]
            / results[f"pipeline_{label}_simsec_per_wallsec_reference"]
        )
    return results


def check_floors(results, baseline_doc):
    """The acceptance floor and the baseline-comparison regression gate."""
    problems = []
    drain = results["timeout_drain_speedup_vs_reference"]
    if drain < DRAIN_SPEEDUP_FLOOR:
        problems.append(
            f"timeout_drain speedup {drain:.1f}x below the {DRAIN_SPEEDUP_FLOOR}x floor"
        )
    base = (baseline_doc or {}).get("results", {})
    for name, current in results.items():
        if not name.endswith("_speedup_vs_reference"):
            continue
        previous = base.get(name)
        if isinstance(previous, (int, float)) and previous > 0:
            if current < GATE_FRACTION * previous:
                problems.append(
                    f"{name}: {current:.2f}x is below {GATE_FRACTION:.0%} of the "
                    f"committed baseline {previous:.2f}x"
                )
    return problems


def emit_report(results):
    counters = REGISTRY.snapshot()["counters"]
    engine_counters = {k: v for k, v in counters.items() if k.startswith("engine.")}
    meta = {
        "bench": "engine",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "workloads": {
            "n_tick": N_TICK, "n_drain": N_DRAIN, "n_churn": N_CHURN,
            "n_send": N_SEND,
            "pipelines": {label: cfg for label, cfg in PIPELINES},
        },
    }
    return write_kernel_report(REPORT_PATH, results, counters=engine_counters, meta=meta)


def main():
    REGISTRY.reset()
    baseline_doc = load_kernel_report(REPORT_PATH)
    results = run_micro_suite()
    results.update(run_pipeline_suite())
    problems = check_floors(results, baseline_doc)
    doc = emit_report(results)
    for name in sorted(results):
        if name.endswith("_speedup_vs_reference"):
            print(f"{name}: {results[name]:.2f}x")
    print(f"wrote {REPORT_PATH}")
    if problems:
        raise SystemExit("engine bench regression:\n  " + "\n  ".join(problems))
    return doc


def test_engine_bench():
    """Pytest entry point (CI smoke runs this via pytest like bench_kernels)."""
    main()


if __name__ == "__main__":
    main()
