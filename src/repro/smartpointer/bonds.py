"""Bonds: determine which atom pairs are currently bonded.

The SmartPointer Bonds action reads atom positions and emits (a) the atom
data it ingested and (b) an adjacency list of bonded pairs.  Table I
characterizes it as O(n^2) — the original toolkit's brute-force scan — with
Serial, round-robin, and parallel compute models.  Both the faithful O(n^2)
kernel and the cell-list O(n) kernel are provided; the Table I complexity
gate fits the faithful kernel's scaling exponent.

Adjacency is held in CSR form (``indptr``/``indices`` arrays, neighbours
ascending within each row): one ``lexsort`` over the doubled pair array
replaces the seed's O(m) Python append loop, and the same representation is
reused by CSym's neighbour gathering and CNA's common-neighbour
intersections.  Cell-list results are memoized per snapshot through
:data:`repro.perf.cache.KERNEL_CACHE`, so pipeline stages that re-derive the
Bonds adjacency share one computation per timestep.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.lammps.neighbor import CellList, neighbor_pairs
from repro.perf.cache import KERNEL_CACHE
from repro.perf.registry import REGISTRY as _perf


def bonds_adjacency(
    positions: np.ndarray, cutoff: float, method: str = "naive"
) -> np.ndarray:
    """Bonded pairs ``(m, 2)`` with ``i < j``, in lexicographic order.

    ``method='naive'`` is the O(n^2) scan of Table I; ``method='celllist'``
    is the O(n) spatial-binning variant.  Both return identical pair sets;
    the cell-list path is snapshot-cached (and therefore read-only).
    """
    if method == "naive":
        return neighbor_pairs(positions, cutoff)
    if method == "celllist":
        with _perf.timer("bonds.adjacency"):
            return KERNEL_CACHE.pairs(positions, cutoff)
    raise ValueError(f"unknown method {method!r}")


def adjacency_csr(pairs: np.ndarray, natoms: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency from a pair array: ``(indptr, indices)``.

    Atom ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]``, sorted
    ascending.  Built with one lexsort of the doubled pair array — no
    per-pair Python loop.
    """
    if natoms < 0:
        raise ValueError("natoms must be non-negative")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        return np.zeros(natoms + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=natoms)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, dst


def adjacency_list(pairs: np.ndarray, natoms: int) -> List[np.ndarray]:
    """Per-atom neighbour index lists from a pair array.

    Same list-of-arrays API as the seed (each entry sorted ascending), but
    sliced out of the CSR arrays instead of appended pair by pair.
    """
    indptr, indices = adjacency_csr(pairs, natoms)
    return [indices[indptr[i] : indptr[i + 1]] for i in range(natoms)]


def _reference_adjacency_list(pairs: np.ndarray, natoms: int) -> List[np.ndarray]:
    """Seed O(m) Python append-loop implementation (kept for the
    equivalence tests)."""
    if natoms < 0:
        raise ValueError("natoms must be non-negative")
    neighbors: List[List[int]] = [[] for _ in range(natoms)]
    for i, j in pairs:
        neighbors[int(i)].append(int(j))
        neighbors[int(j)].append(int(i))
    return [np.array(sorted(lst), dtype=np.int64) for lst in neighbors]


def coordination_numbers(pairs: np.ndarray, natoms: int) -> np.ndarray:
    """Number of bonds per atom, vectorized."""
    counts = np.zeros(natoms, dtype=np.int64)
    if len(pairs):
        np.add.at(counts, pairs[:, 0], 1)
        np.add.at(counts, pairs[:, 1], 1)
    return counts
