"""Wall-clock gates: speedups measured against frozen reference code in the
same interpreter, so the ratios do not depend on the host.

* the event engine against :class:`repro.simkernel._reference.ReferenceEnvironment`
  (with the process-per-message send of :mod:`repro.evpath._reference`);
* the vectorized analysis kernels against their seed ``_reference_*``
  implementations, plus the MD integrator's neighbour-list rebuild counts;
* Table I's complexity column, fitted from kernel timings.

Slow-marked: run with ``PYTHONPATH=src python -m pytest -m slow tests/test_speed_gates.py``.
"""

import statistics
import time
from unittest import mock

import numpy as np
import pytest

from repro.cluster import Machine
from repro.evpath import Messenger
from repro.evpath import _reference as reference_send
from repro.evpath import channel
from repro.evpath.messages import Message, MessageType
from repro.lammps import MDSystem, VelocityVerlet, hex_lattice
from repro.lammps.crack import BOND_CUTOFF
from repro.lammps.neighbor import CellList
from repro.perf.cache import KERNEL_CACHE
from repro.simkernel import Environment
from repro.simkernel._reference import ReferenceEnvironment
from repro.smartpointer import (
    SMARTPOINTER_COMPONENTS, bonds_adjacency, central_symmetry, helper_merge,
)
from repro.smartpointer.cna import cna_dense
from repro.smartpointer.csym import _reference_central_symmetry
from repro.smartpointer.helper import partition_atoms

pytestmark = pytest.mark.slow


# -- event engine -------------------------------------------------------------

N_TICK = 200_000
N_DRAIN = 200_000
N_CHURN = 20_000
N_SEND = 8_000
#: optimized/reference pairs per workload; the gate reads their median ratio
PAIRS = 11
#: acceptance floor: timeout_drain must beat the reference engine by this much
DRAIN_SPEEDUP_FLOOR = 10.0
#: a speedup may not fall below this fraction of its recorded baseline
GATE_FRACTION = 0.8
#: optimized/reference speedups recorded at the sizes above
BASELINE_SPEEDUP = {
    "raw_ticker": 1.4569952397517048,
    "timeout_drain": 3273.7739276169527,
    "timeout_churn": 1.3949739023859233,
    "messenger_send": 1.5660380149959576,
}


def raw_ticker(env_cls):
    t0 = time.perf_counter()
    env = env_cls()

    def ticker(env):
        for _ in range(N_TICK):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    return time.perf_counter() - t0


def timeout_drain(env_cls):
    """A heap of abandoned timers drained by ``run()``: the optimized engine
    tombstone-skips and bulk-compacts them, the reference processes each as
    a dead no-op.  Only the drain is timed."""
    env = env_cls()
    timers = [env.timeout(float(i % 997) + 1.0) for i in range(N_DRAIN)]
    for t in timers:
        t.callbacks.clear()
        env.cancel(t)  # a no-op on the reference engine
    t0 = time.perf_counter()
    env.run()
    return time.perf_counter() - t0


def timeout_churn(env_cls):
    """``any_of([fast, slow])`` races: losers cancelled by condition pruning."""
    t0 = time.perf_counter()
    env = env_cls()

    def racer(env):
        for _ in range(N_CHURN):
            yield env.any_of([env.timeout(0.1), env.timeout(100.0)])

    env.process(racer(env))
    env.run()
    return time.perf_counter() - t0


def messenger_send(env_cls):
    """Control-plane sends over a real machine/NIC model."""
    t0 = time.perf_counter()
    env = env_cls()
    machine = Machine(env, num_nodes=8, cores_per_node=2)
    messenger = Messenger(env, machine.network)
    eps = [messenger.endpoint(machine.nodes[i + 4], f"d{i}") for i in range(4)]

    def drainer(env, ep):
        for _ in range(N_SEND // 4):
            yield ep.recv()

    def sender(env, src, to):
        for _ in range(N_SEND // 4):
            yield messenger.send(src, to, Message(MessageType.ACK, "bench"))

    for i in range(4):
        env.process(drainer(env, eps[i]))
        env.process(sender(env, machine.nodes[i], f"d{i}"))
    env.run()
    seconds = time.perf_counter() - t0
    assert messenger.messages_sent == N_SEND
    return seconds


def _reference(workload):
    """The workload on the reference engine, its sends taking the
    process-per-message path, so the whole pre-fast-path stack is measured."""
    with mock.patch.object(channel.Messenger, "send", reference_send.send_process):
        return workload(ReferenceEnvironment)


def median_speedup(workload):
    """Median over PAIRS of reference/optimized wall time, the two engines
    run back to back within each pair and in alternating order."""
    ratios = []
    for i in range(PAIRS):
        if i % 2:
            ref = _reference(workload)
            opt = workload(Environment)
        else:
            opt = workload(Environment)
            ref = _reference(workload)
        ratios.append(ref / opt)
    return statistics.median(ratios)


@pytest.mark.parametrize("workload", [raw_ticker, timeout_drain, timeout_churn, messenger_send],
                         ids=lambda w: w.__name__)
def test_engine_speedup_holds(workload):
    speedup = median_speedup(workload)
    name = workload.__name__
    if workload is timeout_drain:
        assert speedup >= DRAIN_SPEEDUP_FLOOR, f"{speedup:.1f}x < {DRAIN_SPEEDUP_FLOOR}x"
    assert speedup >= GATE_FRACTION * BASELINE_SPEEDUP[name], (
        f"{name}: {speedup:.2f}x is below {GATE_FRACTION:.0%} of the recorded "
        f"{BASELINE_SPEEDUP[name]:.2f}x"
    )


# -- analysis kernels -----------------------------------------------------------

KERNEL_N = 4096
CSYM_CUTOFF = 1.5
SPEEDUP_FLOOR = 5.0
MD_STEPS = 100


def _best(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        KERNEL_CACHE.clear()  # time the kernel, not the snapshot cache
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def plate():
    side = int(round(np.sqrt(KERNEL_N)))
    return hex_lattice(side, side)[0]


def test_pairs_speedup_floor(plate):
    cells = CellList(plate, BOND_CUTOFF)
    speedup = _best(cells._reference_pairs) / _best(cells.pairs)
    assert speedup >= SPEEDUP_FLOOR, f"pairs: {speedup:.1f}x < {SPEEDUP_FLOOR}x"
    assert {tuple(p) for p in cells.pairs()} == {tuple(p) for p in cells._reference_pairs()}


def test_csym_speedup_floor(plate):
    reference = _best(lambda: _reference_central_symmetry(plate, 6, CSYM_CUTOFF), repeats=1)
    speedup = reference / _best(lambda: central_symmetry(plate, 6, CSYM_CUTOFF))
    assert speedup >= SPEEDUP_FLOOR, f"csym: {speedup:.1f}x < {SPEEDUP_FLOOR}x"
    KERNEL_CACHE.clear()
    assert np.allclose(central_symmetry(plate, 6, CSYM_CUTOFF),
                       _reference_central_symmetry(plate, 6, CSYM_CUTOFF),
                       rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("mode", ["verlet", "interval"])
def test_md_neighbor_rebuilds(plate, mode):
    """Verlet-skin reuse rebuilds on well under a quarter of MD steps; the
    fixed-interval mode rebuilds at least every tenth step."""
    system = MDSystem(plate.copy())
    system.thermalize(0.02, np.random.default_rng(11))
    integ = VelocityVerlet(system, dt=0.005, neighbor_mode=mode)
    integ.step(MD_STEPS)
    if mode == "verlet":
        assert integ.rebuild_count < 0.25 * MD_STEPS
    else:
        assert integ.rebuild_count >= MD_STEPS / 10


# -- Table I complexity column ----------------------------------------------------


def _fit_exponent(sizes, times):
    """Least-squares slope of log(time) vs log(n)."""
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def _helper_timings():
    sizes, times = [], []
    for nx in (40, 80, 160, 320):
        pos, _ = hex_lattice(nx, 40)
        n = len(pos)
        data = {"id": np.arange(n, dtype=np.uint32), "x": pos[:, 0], "y": pos[:, 1]}
        fragments = partition_atoms(data, 8)
        sizes.append(n)
        times.append(_best(lambda: helper_merge(fragments)))
    return sizes, times


def _bonds_naive_timings():
    sizes, times = [], []
    for nx in (12, 24, 48, 72):
        pos, _ = hex_lattice(nx, 12)
        sizes.append(len(pos))
        times.append(_best(lambda: bonds_adjacency(pos, BOND_CUTOFF, "naive")))
    return sizes, times


def _csym_timings():
    # from ~2k atoms up: below that the batched kernel's fixed setup cost
    # dominates and would flatten the fitted exponent
    sizes, times = [], []
    for nx in (40, 80, 160, 240):
        pos, _ = hex_lattice(nx, 48)
        sizes.append(len(pos))
        times.append(_best(lambda: central_symmetry(pos, 6, 1.5), repeats=1))
    return sizes, times


def _cna_dense_timings():
    rng = np.random.default_rng(0)
    sizes, times = [], []
    for n in (100, 200, 400, 800):
        a = rng.random((n, n)) < 0.02
        a = a | a.T
        np.fill_diagonal(a, False)
        sizes.append(n)
        times.append(_best(lambda: cna_dense(a)))
    return sizes, times


@pytest.mark.parametrize("name,timings,expected,tol", [
    ("helper", _helper_timings, 1.0, 0.6),
    ("bonds", _bonds_naive_timings, 2.0, 0.6),
    ("csym", _csym_timings, 1.0, 0.5),
    ("cna", _cna_dense_timings, 3.0, 0.9),
], ids=["helper", "bonds", "csym", "cna"])
def test_table1_complexity_fits(name, timings, expected, tol):
    exponent = _fit_exponent(*timings())
    assert abs(exponent - expected) <= tol, (
        f"{name} ({SMARTPOINTER_COMPONENTS[name].complexity}): fitted exponent "
        f"{exponent:.2f}, expected ~{expected}"
    )
