"""Cell-list neighbour search, vectorized.

Naive all-pairs distance checks are O(n^2); the cell list bins atoms into
boxes of edge >= cutoff so only the 3^dim neighbouring bins need checking,
giving O(n) for homogeneous densities.  Both paths are provided: the
SmartPointer *Bonds* action is characterized as O(n^2) in Table I (it is a
brute-force bonding scan in the original toolkit), while the MD integrator
uses the cell list to stay fast.

:meth:`CellList.pairs` is fully vectorized: atoms are counting-sorted into
cell buckets at construction, and pair generation broadcasts over the half
stencil of cell offsets with ragged cross-products in index arithmetic — no
per-cell Python loop.  The seed per-cell implementation is kept as
:meth:`CellList._reference_pairs` for the equivalence tests and the
speedup floor in ``tests/test_speed_gates.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.perf.registry import REGISTRY as _perf

#: Row-block size of the memory-bounded all-pairs path: peak memory is about
#: ``chunk * n * (dim + 2)`` float64s instead of the n x n x dim delta tensor.
PAIR_CHUNK = 2048


def neighbor_pairs(
    positions: np.ndarray, cutoff: float, chunk_size: Optional[int] = None
) -> np.ndarray:
    """All-pairs neighbour search: O(n^2) time, vectorized.

    Returns an ``(m, 2)`` int array of index pairs ``i < j`` with
    ``|r_i - r_j| <= cutoff``, in lexicographic order.

    ``chunk_size`` bounds memory: rows are processed in blocks of that many
    atoms, so n >~ 20k no longer allocates an n x n x dim delta tensor.  The
    default keeps the one-shot tensor (the Table I "faithful O(n^2)"
    reference) up to ``PAIR_CHUNK`` atoms and blocks beyond that; both paths
    return identical arrays.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    if chunk_size is None:
        chunk_size = n if n <= PAIR_CHUNK else PAIR_CHUNK
    with _perf.timer("neighbor.pairs_naive"):
        if chunk_size >= n:
            deltas = positions[:, None, :] - positions[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
            iu = np.triu_indices(n, k=1)
            mask = dist2[iu] <= cutoff * cutoff
            return np.column_stack([iu[0][mask], iu[1][mask]]).astype(np.int64)
        cutoff2 = cutoff * cutoff
        blocks = []
        for start in range(0, n - 1, chunk_size):
            stop = min(start + chunk_size, n)
            deltas = positions[start:stop, None, :] - positions[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
            ii, jj = np.nonzero(dist2 <= cutoff2)
            keep = jj > ii + start
            blocks.append(
                np.column_stack([ii[keep] + start, jj[keep]]).astype(np.int64)
            )
        return np.concatenate(blocks, axis=0)


def _ragged_cross(
    a_start: np.ndarray, a_count: np.ndarray, b_start: np.ndarray, b_count: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-product index pairs of aligned ragged groups, vectorized.

    Group ``g`` contributes ``a_count[g] * b_count[g]`` pairs; the return is
    ``(slot_a, slot_b, group)`` where the slots index the *sorted-by-cell*
    atom order (``a_start[g] + local_a`` etc.).
    """
    totals = a_count * b_count
    grand_total = int(totals.sum())
    if grand_total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    bounds = np.concatenate([[0], np.cumsum(totals)])
    group = np.repeat(np.arange(len(totals), dtype=np.int64), totals)
    local = np.arange(grand_total, dtype=np.int64) - bounds[group]
    local_a = local // b_count[group]
    local_b = local % b_count[group]
    return a_start[group] + local_a, b_start[group] + local_b, group


class CellList:
    """Spatial binning for O(n) neighbour queries."""

    def __init__(self, positions: np.ndarray, cutoff: float):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2:
            raise ValueError("positions must be (n, dim)")
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        self.positions = positions
        self.cutoff = float(cutoff)
        self.dim = positions.shape[1]
        n = len(positions)
        _perf.count("celllist.build")

        if n == 0:
            self._origin = np.zeros(self.dim)
            self._shape = np.ones(self.dim, dtype=np.int64)
            self._strides = np.ones(self.dim, dtype=np.int64)
            self._cell_of = np.empty(0, dtype=np.int64)
            self._order = np.empty(0, dtype=np.int64)
            self._starts = np.zeros(2, dtype=np.int64)
            return

        self._origin = positions.min(axis=0)
        extent = positions.max(axis=0) - self._origin
        self._shape = np.maximum(1, np.floor(extent / cutoff).astype(np.int64) + 1)
        coords = np.floor((positions - self._origin) / cutoff).astype(np.int64)
        coords = np.minimum(coords, self._shape - 1)
        # Flatten cell coordinates to a single index (row-major).
        strides = np.cumprod(np.concatenate([[1], self._shape[::-1][:-1]]))[::-1]
        self._cell_of = coords @ strides
        self._strides = strides
        ncells = int(np.prod(self._shape))
        # Counting sort of atoms by cell: starts[c]..starts[c+1] index into
        # order for cell c's members.
        self._order = np.argsort(self._cell_of, kind="stable")
        counts = np.bincount(self._cell_of, minlength=ncells)
        self._starts = np.concatenate([[0], np.cumsum(counts)])

    def _cell_members(self, cell_index: int) -> np.ndarray:
        return self._order[self._starts[cell_index] : self._starts[cell_index + 1]]

    def _stencil(self) -> np.ndarray:
        """All 3^dim cell-coordinate offsets."""
        return np.stack(
            np.meshgrid(*([np.array([-1, 0, 1])] * self.dim), indexing="ij"), axis=-1
        ).reshape(-1, self.dim)

    def pairs(self) -> np.ndarray:
        """All pairs ``i < j`` within the cutoff, as an ``(m, 2)`` array.

        Vectorized: candidate pairs for every occupied cell and every
        half-stencil offset are generated in one ragged-cross-product sweep
        over the counting-sort buckets, then distance-filtered in a single
        pass.  No Python loop over cells.
        """
        n = len(self.positions)
        if n < 2:
            return np.empty((0, 2), dtype=np.int64)
        with _perf.timer("celllist.pairs"):
            return self._pairs_vectorized()

    def _pairs_vectorized(self) -> np.ndarray:
        starts = self._starts
        order = self._order
        counts = np.diff(starts)
        occupied = np.nonzero(counts)[0]
        occ_counts = counts[occupied]
        occ_starts = starts[occupied]
        occ_coords = np.stack(np.unravel_index(occupied, self._shape), axis=-1)

        slot_a_parts = []
        slot_b_parts = []

        # Same-cell candidates: the full cross product of each bucket with
        # itself, triangle-filtered on bucket-local slots.
        slot_a, slot_b, _ = _ragged_cross(
            occ_starts, occ_counts, occ_starts, occ_counts
        )
        upper = slot_a < slot_b
        slot_a_parts.append(slot_a[upper])
        slot_b_parts.append(slot_b[upper])

        # Cross-cell candidates: each unordered cell pair exactly once, via
        # the lexicographically-positive half of the offset stencil.
        for offset in self._stencil():
            if not offset.any():
                continue
            nonzero = np.nonzero(offset)[0]
            if offset[nonzero[0]] < 0:
                continue
            neigh_coords = occ_coords + offset
            valid = np.all(
                (neigh_coords >= 0) & (neigh_coords < self._shape), axis=1
            )
            if not valid.any():
                continue
            neigh_cells = neigh_coords[valid] @ self._strides
            neigh_counts = counts[neigh_cells]
            busy = neigh_counts > 0
            if not busy.any():
                continue
            slot_a, slot_b, _ = _ragged_cross(
                occ_starts[valid][busy],
                occ_counts[valid][busy],
                starts[neigh_cells[busy]],
                neigh_counts[busy],
            )
            slot_a_parts.append(slot_a)
            slot_b_parts.append(slot_b)

        i = order[np.concatenate(slot_a_parts)]
        j = order[np.concatenate(slot_b_parts)]
        d = self.positions[i] - self.positions[j]
        within = np.einsum("ij,ij->i", d, d) <= self.cutoff * self.cutoff
        i, j = i[within], j[within]
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        return np.column_stack([lo, hi])

    def _reference_pairs(self) -> np.ndarray:
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

    def neighbors_of(self, index: int) -> np.ndarray:
        """Indices of atoms within the cutoff of atom ``index`` (excluding it)."""
        pos = self.positions[index]
        coord = np.floor((pos - self._origin) / self.cutoff).astype(np.int64)
        coord = np.minimum(np.maximum(coord, 0), self._shape - 1)
        neigh = coord + self._stencil()
        valid = np.all((neigh >= 0) & (neigh < self._shape), axis=1)
        cells = neigh[valid] @ self._strides
        candidates = np.concatenate([self._cell_members(c) for c in cells])
        candidates = candidates[candidates != index]
        if len(candidates) == 0:
            return candidates
        d = self.positions[candidates] - pos
        mask = np.einsum("ij,ij->i", d, d) <= self.cutoff * self.cutoff
        return candidates[mask]
