"""Property-based tests (hypothesis) over the analytics kernels, formats,
and cost models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.adios import read_bp, write_bp
from repro.lammps import fcc_lattice, hex_lattice, notch
from repro.lammps.crack import BOND_CUTOFF
from repro.lammps.lattice import R0
from repro.lammps.neighbor import CellList, neighbor_pairs
from repro.smartpointer.bonds import adjacency_csr, adjacency_list, bonds_adjacency
from repro.smartpointer.cna import common_neighbor_analysis, pair_signatures
from repro.smartpointer.costs import ComputeModel, CostModel
from repro.smartpointer.csym import central_symmetry
from repro.smartpointer.fragments import FragmentTracker, find_fragments
from repro.smartpointer.helper import helper_merge, partition_atoms
from tests.oracles import kernels as reference


def _crack_notched_plate(seed=0, nx=16, ny=10, jitter=0.02):
    """A notched hex plate with thermal-ish jitter: the crack workload's
    geometry, used to pin old/new kernel equivalence on realistic inputs."""
    rng = np.random.default_rng(seed)
    positions, box = hex_lattice(nx, ny)
    tip = np.array([box[0, 0] + 0.3 * (box[0, 1] - box[0, 0]),
                    (box[1, 0] + box[1, 1]) / 2.0])
    positions = notch(positions, tip, length=4.0, half_width=0.6 * R0)
    return positions + rng.normal(0.0, jitter, positions.shape)


# -- BP-lite format ----------------------------------------------------------------

_dtypes = st.sampled_from(["float64", "float32", "int64", "int32", "uint8"])


@given(
    shape=st.tuples(st.integers(0, 20), st.integers(1, 5)),
    dtype=_dtypes,
    seed=st.integers(0, 1000),
    attrs=st.dictionaries(
        st.text(min_size=1, max_size=8).filter(str.isidentifier),
        st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=10), st.booleans()),
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_bp_roundtrip_random(tmp_path_factory, shape, dtype, seed, attrs):
    rng = np.random.default_rng(seed)
    array = (rng.random(shape) * 100).astype(dtype)
    path = tmp_path_factory.mktemp("bp") / "x.bp"
    write_bp(path, {"a": array}, attrs)
    got, got_attrs = read_bp(path)
    np.testing.assert_array_equal(got["a"], array)
    assert got_attrs == attrs


# -- helper merge ------------------------------------------------------------------


@given(
    n=st.integers(1, 200),
    parts=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
@settings(max_examples=50, deadline=None)
def test_partition_merge_inverse(n, parts, seed):
    rng = np.random.default_rng(seed)
    data = {
        "id": np.arange(n, dtype=np.uint32),
        "x": rng.random(n),
    }
    merged = helper_merge(partition_atoms(data, parts))
    np.testing.assert_array_equal(merged["id"], data["id"])
    np.testing.assert_array_equal(merged["x"], data["x"])


@given(
    n=st.integers(2, 100),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_merge_invariant_to_fragment_order(n, seed):
    rng = np.random.default_rng(seed)
    data = {"id": np.arange(n, dtype=np.uint32), "v": rng.random(n)}
    fragments = partition_atoms(data, 4)
    order = rng.permutation(len(fragments))
    merged = helper_merge([fragments[i] for i in order])
    np.testing.assert_array_equal(merged["v"], data["v"])


# -- neighbour search ----------------------------------------------------------------


@given(
    n=st.integers(2, 120),
    dim=st.sampled_from([2, 3]),
    cutoff=st.floats(0.2, 1.5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_celllist_equals_bruteforce(n, dim, cutoff, seed):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, dim)) * 4.0
    naive = {tuple(p) for p in neighbor_pairs(positions, cutoff)}
    fast = {tuple(p) for p in CellList(positions, cutoff).pairs()}
    assert naive == fast


@given(
    n=st.integers(1, 80),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_neighbors_of_consistent_with_pairs(n, seed):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2)) * 3.0
    cells = CellList(positions, 0.5)
    pair_set = {tuple(p) for p in cells.pairs()}
    for i in range(n):
        for j in cells.neighbors_of(i):
            a, b = min(i, int(j)), max(i, int(j))
            assert (a, b) in pair_set


# -- vectorized kernels vs seed references ---------------------------------------------
#
# The vectorized hot paths must be drop-in: identical pair sets, identical
# adjacency, CSP within 1e-9, identical CNA signatures/labels — over random
# clouds, perfect lattices, and the crack workload's notched plates.


@given(
    n=st.integers(2, 120),
    dim=st.sampled_from([2, 3]),
    cutoff=st.floats(0.2, 1.5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_pairs_match_reference(n, dim, cutoff, seed):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, dim)) * 4.0
    cells = CellList(positions, cutoff)
    assert {tuple(p) for p in cells.pairs()} == {
        tuple(p) for p in reference.reference_pairs(cells)
    }


@given(
    n=st.integers(2, 100),
    chunk=st.integers(1, 50),
    cutoff=st.floats(0.2, 1.2),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_chunked_allpairs_identical_to_oneshot(n, chunk, cutoff, seed):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2)) * 3.0
    one_shot = neighbor_pairs(positions, cutoff, chunk_size=n)
    chunked = neighbor_pairs(positions, cutoff, chunk_size=chunk)
    np.testing.assert_array_equal(one_shot, chunked)


@given(
    n=st.integers(1, 90),
    dim=st.sampled_from([2, 3]),
    num_neighbors=st.sampled_from([2, 4, 6, 12]),
    cutoff=st.floats(0.3, 1.2),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_csym_matches_reference_random_clouds(n, dim, num_neighbors, cutoff, seed):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, dim)) * 3.0
    fast = central_symmetry(positions, num_neighbors, cutoff)
    slow = reference.reference_central_symmetry(positions, num_neighbors, cutoff)
    assert np.allclose(fast, slow, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "positions,num_neighbors,cutoff",
    [
        (hex_lattice(12, 10)[0], 6, 1.5),
        (fcc_lattice(4, 4, 4)[0], 12, R0 * 1.2),
        (_crack_notched_plate(seed=1), 6, 1.5),
        (_crack_notched_plate(seed=2, jitter=0.05), 6, 1.5),
    ],
    ids=["hex", "fcc", "notched", "notched-hot"],
)
def test_csym_matches_reference_lattices(positions, num_neighbors, cutoff):
    fast = central_symmetry(positions, num_neighbors, cutoff)
    slow = reference.reference_central_symmetry(positions, num_neighbors, cutoff)
    assert np.allclose(fast, slow, rtol=0.0, atol=1e-9)


@given(
    n=st.integers(0, 80),
    m=st.integers(0, 160),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_adjacency_csr_matches_reference(n, m, seed):
    rng = np.random.default_rng(seed)
    if n >= 2 and m:
        raw = rng.integers(0, n, size=(m, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        pairs = np.sort(raw, axis=1).astype(np.int64)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    fast = adjacency_list(pairs, n)
    slow = reference.reference_adjacency_list(pairs, n)
    assert len(fast) == len(slow) == n
    for a, b in zip(fast, slow):
        np.testing.assert_array_equal(a, b)
    indptr, indices = adjacency_csr(pairs, n)
    assert indptr[-1] == len(indices) == 2 * len(pairs)


@pytest.mark.parametrize(
    "positions,cutoff",
    [
        (hex_lattice(10, 8)[0], BOND_CUTOFF),
        (fcc_lattice(3, 3, 3)[0], R0 * 1.2),
        (_crack_notched_plate(seed=3), BOND_CUTOFF),
    ],
    ids=["hex", "fcc", "notched"],
)
def test_cna_matches_reference(positions, cutoff):
    pairs = bonds_adjacency(positions, cutoff, "celllist")
    assert pair_signatures(pairs, len(positions)) == reference.reference_pair_signatures(
        pairs, len(positions)
    )
    np.testing.assert_array_equal(
        common_neighbor_analysis(pairs, len(positions)),
        reference.reference_common_neighbor_analysis(pairs, len(positions)),
    )


# -- cost models ----------------------------------------------------------------------


@given(
    base=st.floats(0.1, 100),
    exponent=st.floats(0.1, 3.0),
    natoms=st.integers(1, 10**8),
    units=st.integers(1, 64),
)
@settings(max_examples=60, deadline=None)
def test_cost_model_invariants(base, exponent, natoms, units):
    cost = CostModel("x", base_seconds=base, exponent=exponent, reference_atoms=10**6)
    serial = cost.serial_time(natoms)
    assert serial >= 0
    # RR: per-chunk time constant, throughput linear in units.
    assert cost.service_time(natoms, units, ComputeModel.ROUND_ROBIN) == serial
    assert cost.throughput(natoms, units, ComputeModel.ROUND_ROBIN) == pytest.approx(
        units / serial
    )
    # TREE never slower than serial.
    assert cost.service_time(natoms, units, ComputeModel.TREE) <= serial + 1e-12
    # units_to_sustain is the minimal sufficient allocation.
    interval = serial / 3 + 0.01
    needed = cost.units_to_sustain(natoms, interval, ComputeModel.ROUND_ROBIN,
                                   max_units=512)
    if needed <= 512:
        assert cost.throughput(natoms, needed) >= 1.0 / interval
        if needed > 1:
            assert cost.throughput(natoms, needed - 1) < 1.0 / interval


# -- fragments --------------------------------------------------------------------------


@st.composite
def bond_lists(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 80))
    pairs = set()
    for _ in range(m):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        pairs.add((i, j))
    array = (np.array(sorted(pairs), dtype=np.int64)
             if pairs else np.empty((0, 2), dtype=np.int64))
    return n, array


@given(data=bond_lists())
@settings(max_examples=60, deadline=None)
def test_fragment_labels_partition_atoms(data):
    n, pairs = data
    labels, count = find_fragments(pairs, n)
    assert len(labels) == n
    assert len(np.unique(labels)) == count
    # Bonded atoms always share a label.
    for i, j in pairs:
        assert labels[i] == labels[j]


@given(data=bond_lists(), epochs=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_tracker_sizes_conserve_atoms(data, epochs):
    n, pairs = data
    tracker = FragmentTracker(min_size=1)
    for _ in range(epochs):
        ids = tracker.update(pairs, n)
        assert len(ids) == n
        assert sum(tracker.sizes.values()) == int((ids >= 0).sum())
        # Persistent ids are unique per fragment: the id map is a function.
        for fid, size in tracker.sizes.items():
            assert size == int((ids == fid).sum())


@given(data=bond_lists())
@settings(max_examples=30, deadline=None)
def test_tracker_idempotent_on_static_bonds(data):
    n, pairs = data
    tracker = FragmentTracker(min_size=1)
    first = tracker.update(pairs, n)
    for _ in range(3):
        again = tracker.update(pairs, n)
        np.testing.assert_array_equal(first, again)
    # No split/merge/vanish events on a static structure.
    assert all(e.kind == "appear" for e in tracker.events)
