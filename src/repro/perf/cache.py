"""Snapshot-keyed kernel cache.

Several pipeline stages derive the same intermediates from one simulation
snapshot: Bonds computes the bonded-pair list, and CSym and CNA both need
that adjacency again.  The cache keys results by a content digest of the
input arrays (plus the kernel parameters), so *any* stage asking for the
same computation on the same snapshot gets the memoized result — one
computation per timestep, however many consumers.

Content hashing (rather than ``id()``) makes the cache safe against in-place
mutation: a moved snapshot hashes differently and simply misses.  Cached
arrays are returned read-only so one consumer cannot corrupt another's view.
Entries are LRU-evicted; hit/miss totals feed the perf registry under
``kernelcache.hit`` / ``kernelcache.miss``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Hashable, Tuple

import numpy as np

from repro.perf.registry import REGISTRY


def array_digest(array: np.ndarray) -> bytes:
    """Content fingerprint of an array (dtype, shape, and raw bytes)."""
    array = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(array.dtype).encode())
    h.update(str(array.shape).encode())
    h.update(array.tobytes())
    return h.digest()


class SnapshotKernelCache:
    """LRU cache of kernel results keyed by input-content digests."""

    def __init__(self, max_entries: int = 32):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get_or_compute(self, key: Hashable, compute):
        """Return the cached value for ``key``, computing it on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            REGISTRY.count("kernelcache.hit")
            return self._entries[key]
        REGISTRY.count("kernelcache.miss")
        value = compute()
        self._entries[key] = value
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return value

    # -- kernel-specific entry points --------------------------------------------

    def pairs(self, positions: np.ndarray, cutoff: float) -> np.ndarray:
        """Cell-list bonded pairs for a snapshot, lexsorted and read-only."""
        positions = np.asarray(positions, dtype=np.float64)
        key = ("pairs", array_digest(positions), float(cutoff))

        def compute() -> np.ndarray:
            from repro.lammps.neighbor import CellList

            pairs = CellList(positions, cutoff).pairs()
            if len(pairs):
                pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            pairs.setflags(write=False)
            return pairs

        return self.get_or_compute(key, compute)

    def csr(self, pairs: np.ndarray, natoms: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)`` for a pair list, read-only."""
        pairs = np.asarray(pairs, dtype=np.int64)
        key = ("csr", array_digest(pairs), int(natoms))

        def compute() -> Tuple[np.ndarray, np.ndarray]:
            from repro.smartpointer.bonds import adjacency_csr

            indptr, indices = adjacency_csr(pairs, natoms)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            return indptr, indices

        return self.get_or_compute(key, compute)


#: Default cache shared by the analytics kernels.
#:
#: One cache for the whole process is safe to share between runs: entries
#: are keyed by the content digest of their inputs plus the kernel
#: parameters, and a hit returns (read-only) what a miss would compute.
#: So the cache changes wall time, never a result; only the
#: ``kernelcache.hit``/``miss`` counters depend on what ran before.
KERNEL_CACHE = SnapshotKernelCache()
