"""Tests for the perf-instrumentation layer: registry and cache."""

import json

import numpy as np
import pytest

from repro.perf.cache import KERNEL_CACHE, SnapshotKernelCache, array_digest
from repro.perf.registry import REGISTRY, PerfRegistry


@pytest.fixture(autouse=True)
def clean_global_state():
    REGISTRY.reset()
    KERNEL_CACHE.clear()
    yield
    REGISTRY.reset()
    KERNEL_CACHE.clear()


class TestPerfRegistry:
    def test_timer_accumulates_stats(self):
        reg = PerfRegistry()
        for _ in range(3):
            with reg.timer("k"):
                pass
        stats = reg.stats("k")
        assert stats.calls == 3
        assert stats.total_seconds >= stats.max_seconds >= stats.min_seconds > 0
        assert stats.mean_seconds == pytest.approx(stats.total_seconds / 3)

    def test_timer_records_on_exception(self):
        reg = PerfRegistry()
        with pytest.raises(RuntimeError):
            with reg.timer("boom"):
                raise RuntimeError("x")
        assert reg.stats("boom").calls == 1

    def test_counters(self):
        reg = PerfRegistry()
        reg.count("events")
        reg.count("events", 4)
        assert reg.counter("events") == 5
        assert reg.counter("missing") == 0

    def test_snapshot_shape_and_reset(self):
        reg = PerfRegistry()
        with reg.timer("a"):
            pass
        reg.count("b", 2)
        snap = reg.snapshot()
        assert set(snap) == {"timers", "counters"}
        assert snap["counters"] == {"b": 2}
        assert snap["timers"]["a"]["calls"] == 1
        json.dumps(snap)  # must be JSON-serializable as-is
        reg.reset()
        assert reg.snapshot() == {"timers": {}, "counters": {}}


class TestArrayDigest:
    def test_content_determines_digest(self):
        a = np.arange(10, dtype=np.float64)
        assert array_digest(a) == array_digest(a.copy())
        b = a.copy()
        b[3] += 1e-12
        assert array_digest(a) != array_digest(b)

    def test_dtype_and_shape_matter(self):
        a = np.zeros(4, dtype=np.float64)
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) != array_digest(a.reshape(2, 2))


class TestSnapshotKernelCache:
    def test_hit_miss_counters(self):
        cache = SnapshotKernelCache()
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert calls == [1]
        assert REGISTRY.counter("kernelcache.miss") == 1
        assert REGISTRY.counter("kernelcache.hit") == 2

    def test_lru_eviction(self):
        cache = SnapshotKernelCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a; b is now oldest
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert len(cache) == 2
        recomputed = []
        cache.get_or_compute("b", lambda: recomputed.append(1) or 2)
        assert recomputed == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            SnapshotKernelCache(max_entries=0)

    def test_pairs_cached_by_content_and_readonly(self):
        rng = np.random.default_rng(0)
        pos = rng.random((50, 2)) * 4
        cache = SnapshotKernelCache()
        first = cache.pairs(pos, 0.7)
        again = cache.pairs(pos.copy(), 0.7)
        assert again is first  # content hash, not identity
        assert not first.flags.writeable
        # Mutating the snapshot changes the key: a miss, not a stale hit.
        moved = pos.copy()
        moved[0] += 0.5
        other = cache.pairs(moved, 0.7)
        assert other is not first
        # Lexsorted output.
        if len(first) > 1:
            order = np.lexsort((first[:, 1], first[:, 0]))
            assert np.array_equal(order, np.arange(len(first)))

    def test_csr_cached_and_readonly(self):
        pairs = np.array([[0, 1], [1, 2], [0, 2]])
        cache = SnapshotKernelCache()
        indptr, indices = cache.csr(pairs, 3)
        assert not indptr.flags.writeable and not indices.flags.writeable
        indptr2, indices2 = cache.csr(pairs.copy(), 3)
        assert indptr2 is indptr and indices2 is indices
        assert indptr[-1] == len(indices) == 2 * len(pairs)
