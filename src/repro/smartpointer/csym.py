"""CSym: central-symmetry parameter, detecting broken bonds.

The central-symmetry parameter (Kelchner, Plimpton & Hamilton 1998) measures
how far an atom's neighbourhood departs from inversion symmetry:

    CSP_i = sum_{k=1..N/2} | r_{i,k} + r_{i,k'} |^2

where the N nearest neighbours are matched into N/2 opposite pairs chosen to
minimize each term.  A perfect centro-symmetric crystal gives CSP = 0;
surfaces, defects, and *broken bonds* give large values.  SmartPointer's
CSym action uses this, together with a reference adjacency set from Bonds,
to decide whether a bond has broken — the event that triggers the pipeline's
dynamic branch.

The kernel is batch-vectorized: one snapshot-cached cell-list pass yields a
CSR adjacency, atoms are grouped by neighbour count, nearest-neighbour
selection is a row-wise sort per group, and the greedy opposite-pair
matching runs as <= N/2 rounds of whole-group array ops instead of a
per-atom Python loop with ``list.remove``.  The seed per-atom kernel is
kept in ``tests/oracles/kernels.py``; both consume neighbours in
ascending-index order so their greedy tie-breaking — and therefore their
output — matches exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.lammps.neighbor import CellList
from repro.perf.cache import KERNEL_CACHE
from repro.perf.registry import REGISTRY as _perf

#: Neighbourhoods larger than this are pre-filtered with ``argpartition``
#: before the row-wise sort; below it, sorting the whole row is cheaper.
_PARTITION_THRESHOLD = 32


def central_symmetry(
    positions: np.ndarray,
    num_neighbors: int = 6,
    cutoff: Optional[float] = None,
    pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-atom central-symmetry parameter.

    ``num_neighbors`` should be the crystal's coordination number (6 for the
    2-D triangular lattice, 12 for fcc).  Neighbours are found within
    ``cutoff`` (defaults to 2.0, generous for LJ lattices); atoms with fewer
    than ``num_neighbors`` neighbours use all they have (surface atoms
    naturally score high).

    ``pairs`` may supply a precomputed pair list for this snapshot and
    cutoff (e.g. the Bonds stage's output) to skip the neighbour search;
    otherwise the snapshot-keyed kernel cache shares one cell-list pass
    with the other stages analysing the same positions.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if num_neighbors < 2 or num_neighbors % 2:
        raise ValueError("num_neighbors must be an even integer >= 2")
    if cutoff is None:
        cutoff = 2.0
    with _perf.timer("csym.central_symmetry"):
        csp = np.zeros(n)
        if n == 0:
            return csp
        if pairs is None:
            pairs = KERNEL_CACHE.pairs(positions, cutoff)
        indptr, indices = KERNEL_CACHE.csr(pairs, n)
        degree = np.diff(indptr)
        csp[degree == 0] = np.inf
        csp[degree == 1] = 4.0 * cutoff * cutoff
        for d in np.unique(degree):
            if d < 2:
                continue
            atoms = np.nonzero(degree == d)[0]
            take = min(num_neighbors, int(d))
            # Gather each atom's d neighbours as one (group, d) block.
            neigh = indices[indptr[atoms][:, None] + np.arange(d)[None, :]]
            vectors = positions[neigh] - positions[atoms][:, None, :]
            dist2 = np.einsum("gkd,gkd->gk", vectors, vectors)
            if d > max(_PARTITION_THRESHOLD, 2 * take):
                part = np.argpartition(dist2, take - 1, axis=1)[:, :take]
                part_dist2 = np.take_along_axis(dist2, part, axis=1)
                nearest = np.take_along_axis(
                    part, np.argsort(part_dist2, axis=1), axis=1
                )
            else:
                nearest = np.argsort(dist2, axis=1)[:, :take]
            vectors = np.take_along_axis(vectors, nearest[:, :, None], axis=1)
            csp[atoms] = _greedy_pair_sums(vectors)
        return csp


def _greedy_pair_sums(vectors: np.ndarray) -> np.ndarray:
    """Batched greedy opposite-pair matching.

    ``vectors`` is ``(group, k, dim)``, each row sorted nearest-first.  Every
    round takes each row's first unmatched vector ``a``, pairs it with the
    unmatched ``b`` minimizing ``|v_a + v_b|^2``, and accumulates that norm —
    the same greedy the seed kernel ran per atom, executed as k/2 rounds of
    whole-group array operations.
    """
    group, k, _ = vectors.shape
    alive = np.ones((group, k), dtype=bool)
    totals = np.zeros(group)
    rows = np.arange(group)
    cols = np.arange(k)
    for _ in range(k // 2):
        first = np.argmax(alive, axis=1)
        sums = vectors[rows, first][:, None, :] + vectors
        norms = np.einsum("gkd,gkd->gk", sums, sums)
        candidate = alive & (cols[None, :] != first[:, None])
        norms = np.where(candidate, norms, np.inf)
        best = np.argmin(norms, axis=1)
        totals += norms[rows, best]
        alive[rows, first] = False
        alive[rows, best] = False
    return totals


def detect_break(
    positions: np.ndarray,
    reference_pairs: np.ndarray,
    cutoff: float,
    stretch_factor: float = 1.25,
) -> Tuple[bool, np.ndarray]:
    """Decide whether any reference bond has broken.

    Uses the same criterion as the crack experiment's ground truth: a
    reference bond whose current length exceeds ``stretch_factor * cutoff``
    is broken.  Returns ``(any_broken, broken_pair_mask)``.
    """
    if len(reference_pairs) == 0:
        return False, np.zeros(0, dtype=bool)
    d = positions[reference_pairs[:, 0]] - positions[reference_pairs[:, 1]]
    lengths2 = np.einsum("ij,ij->i", d, d)
    threshold = (stretch_factor * cutoff) ** 2
    broken = lengths2 > threshold
    return bool(broken.any()), broken
