"""The seed analysis kernels, kept as references for the vectorized ones.

The vectorized kernels in :mod:`repro.smartpointer` and
:mod:`repro.lammps.neighbor` replaced these seed implementations; they
stay here, verbatim, as the baseline of the equivalence properties in
``tests/test_properties_kernels.py`` and the speedup floors in
``tests/test_speed_gates.py``.  :func:`reference_pairs` takes the live
:class:`~repro.lammps.neighbor.CellList` as ``self``.  Nothing in
production calls this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lammps.neighbor import CellList
from repro.smartpointer.cna import _labels_from_signatures, _longest_chain


def reference_adjacency_list(pairs: np.ndarray, natoms: int) -> List[np.ndarray]:
    """Seed O(m) Python append-loop implementation (kept for the
    equivalence tests)."""
    if natoms < 0:
        raise ValueError("natoms must be non-negative")
    neighbors: List[List[int]] = [[] for _ in range(natoms)]
    for i, j in pairs:
        neighbors[int(i)].append(int(j))
        neighbors[int(j)].append(int(i))
    return [np.array(sorted(lst), dtype=np.int64) for lst in neighbors]


def reference_pair_signatures(
    pairs: np.ndarray, natoms: int
) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
    """Seed set-based implementation (kept for the equivalence tests)."""
    neighbors = reference_adjacency_list(pairs, natoms)
    neighbor_sets = [set(int(x) for x in lst) for lst in neighbors]
    adjacency = {i: neighbor_sets[i] for i in range(natoms)}
    signatures: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    for i, j in pairs:
        i, j = int(i), int(j)
        common = neighbor_sets[i] & neighbor_sets[j]
        ncn = len(common)
        if ncn == 0:
            signatures[(i, j)] = (0, 0, 0)
            continue
        nb = 0
        for a in common:
            nb += len(adjacency[a] & common)
        nb //= 2
        lcb = _longest_chain(common, adjacency)
        signatures[(i, j)] = (ncn, nb, lcb)
    return signatures


def reference_common_neighbor_analysis(pairs: np.ndarray, natoms: int) -> np.ndarray:
    """Seed labeling path (kept for the equivalence tests)."""
    return _labels_from_signatures(reference_pair_signatures(pairs, natoms), natoms)


def reference_central_symmetry(
    positions: np.ndarray,
    num_neighbors: int = 6,
    cutoff: Optional[float] = None,
) -> np.ndarray:
    """Seed per-atom kernel (kept for the equivalence tests and the
    speedup floor in ``tests/test_speed_gates.py``).

    Identical to the seed apart from sorting each atom's neighbour
    candidates by index, which pins the greedy tie-breaking to the same
    order the batched kernel uses (the CSR rows are ascending).
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if num_neighbors < 2 or num_neighbors % 2:
        raise ValueError("num_neighbors must be an even integer >= 2")
    if cutoff is None:
        cutoff = 2.0
    csp = np.zeros(n)
    cells = CellList(positions, cutoff)
    for i in range(n):
        neigh = np.sort(cells.neighbors_of(i))
        if len(neigh) < 2:
            csp[i] = np.inf if len(neigh) == 0 else 4.0 * cutoff * cutoff
            continue
        vectors = positions[neigh] - positions[i]
        dist2 = np.einsum("ij,ij->i", vectors, vectors)
        take = min(num_neighbors, len(neigh))
        nearest = np.argsort(dist2)[:take]
        vectors = vectors[nearest]
        # Greedy opposite-pair matching: repeatedly take the pair (a, b)
        # minimizing |v_a + v_b|^2.  Exact for ideal lattices and standard
        # practice for the CSP.
        remaining = list(range(len(vectors)))
        total = 0.0
        while len(remaining) >= 2:
            a = remaining[0]
            sums = vectors[a] + vectors[remaining[1:]]
            norms = np.einsum("ij,ij->i", sums, sums)
            best = int(np.argmin(norms))
            total += float(norms[best])
            b = remaining[1 + best]
            remaining.remove(a)
            remaining.remove(b)
        csp[i] = total
    return csp


def reference_pairs(self) -> np.ndarray:
    """Seed per-occupied-cell implementation (kept for the equivalence
    tests and the speedup floor in ``tests/test_speed_gates.py``)."""
    n = len(self.positions)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    offsets = self._stencil()
    out_i, out_j = [], []
    cutoff2 = self.cutoff * self.cutoff
    coords_cache = np.stack(
        np.unravel_index(np.arange(int(np.prod(self._shape))), self._shape), axis=-1
    )
    occupied = np.unique(self._cell_of)
    for cell in occupied:
        members = self._cell_members(cell)
        cell_coord = coords_cache[cell]
        neigh_coords = cell_coord + offsets
        valid = np.all((neigh_coords >= 0) & (neigh_coords < self._shape), axis=1)
        neigh_cells = neigh_coords[valid] @ self._strides
        # Only visit neighbour cells with index >= this cell to avoid
        # double counting; handle same-cell pairs via triangle below.
        for other in neigh_cells:
            if other < cell:
                continue
            others = self._cell_members(other)
            if len(others) == 0:
                continue
            if other == cell:
                if len(members) < 2:
                    continue
                a, b = np.triu_indices(len(members), k=1)
                ii, jj = members[a], members[b]
            else:
                ii = np.repeat(members, len(others))
                jj = np.tile(others, len(members))
            d = self.positions[ii] - self.positions[jj]
            mask = np.einsum("ij,ij->i", d, d) <= cutoff2
            if mask.any():
                out_i.append(ii[mask])
                out_j.append(jj[mask])
    if not out_i:
        return np.empty((0, 2), dtype=np.int64)
    i = np.concatenate(out_i)
    j = np.concatenate(out_j)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    return np.column_stack([lo, hi])
