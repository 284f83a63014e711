"""Wall-clock kernel timers and event counters.

The hot kernels are instrumented with ``REGISTRY.timer("kernel.name")``
context blocks and ``REGISTRY.count("event.name")`` counters; the registry
accumulates per-kernel call counts and wall-clock totals cheaply enough to
stay on in production (one ``perf_counter`` pair per call).  The benchmark
suite and tests ``reset()`` the registry, run a scenario, and read
``snapshot()`` — a plain-dict view that serializes straight to JSON.

Timer names are dotted paths (``celllist.pairs``, ``md.rebuild``) so
reports group naturally by subsystem.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


@dataclass
class KernelStats:
    """Accumulated wall-clock statistics for one timed kernel."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    min_seconds: float = math.inf
    max_seconds: float = 0.0

    def record(self, seconds: float) -> None:
        self.calls += 1
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds if self.calls else 0.0,
            "max_seconds": self.max_seconds,
        }


class CounterHandle:
    """A pre-resolved counter: one attribute bump instead of a dict lookup.

    Hot loops (datatap buffer inserts, the engine counter publisher) hold a
    handle and call :meth:`add`; the registry folds handle values into
    :meth:`PerfRegistry.counter` / :meth:`PerfRegistry.snapshot` reads, and
    :meth:`PerfRegistry.reset` zeroes them in place so long-lived holders
    stay valid across bench scenarios.
    """

    __slots__ = ("name", "value", "_registry")

    def __init__(self, registry: "PerfRegistry", name: str):
        self._registry = registry
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if self._registry.enabled:
            self.value += amount


@dataclass
class PerfRegistry:
    """Process-wide accumulator for kernel timers and event counters."""

    enabled: bool = True
    _timers: Dict[str, KernelStats] = field(default_factory=dict)
    _counters: Dict[str, int] = field(default_factory=dict)
    _handles: Dict[str, CounterHandle] = field(default_factory=dict)

    # -- timers -----------------------------------------------------------------

    @contextmanager
    def timer(self, name: str):
        """Time a block of code under ``name`` (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stats = self._timers.get(name)
            if stats is None:
                stats = self._timers[name] = KernelStats(name)
            stats.record(elapsed)

    def timed(self, name: Optional[str] = None) -> Callable:
        """Decorator form of :meth:`timer`; defaults to the function name."""

        def decorate(fn: Callable) -> Callable:
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.timer(label):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def record_duration(self, name: str, seconds: float) -> None:
        """Record an externally measured duration under ``name``.

        Used for durations the registry cannot time itself — notably
        *simulated*-time intervals such as fault MTTR, which share the
        report schema with wall-clock timers.
        """
        if not self.enabled:
            return
        stats = self._timers.get(name)
        if stats is None:
            stats = self._timers[name] = KernelStats(name)
        stats.record(seconds)

    def stats(self, name: str) -> Optional[KernelStats]:
        return self._timers.get(name)

    # -- counters ---------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def count_max(self, name: str, value: int) -> None:
        """Fold a high-water mark into ``name`` (keeps the maximum seen)."""
        if not self.enabled:
            return
        if value > self._counters.get(name, 0):
            self._counters[name] = value

    def handle(self, name: str) -> CounterHandle:
        """A reusable :class:`CounterHandle` for ``name`` (cached per name)."""
        h = self._handles.get(name)
        if h is None:
            h = self._handles[name] = CounterHandle(self, name)
        return h

    def counter(self, name: str) -> int:
        total = self._counters.get(name, 0)
        h = self._handles.get(name)
        return total + h.value if h is not None else total

    # -- lifecycle --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serializable view of all timers and counters."""
        counters = dict(self._counters)
        for name, h in self._handles.items():
            if h.value:
                counters[name] = counters.get(name, 0) + h.value
        return {
            "timers": {k: v.as_dict() for k, v in sorted(self._timers.items())},
            "counters": dict(sorted(counters.items())),
        }

    def reset(self) -> None:
        self._timers.clear()
        self._counters.clear()
        for h in self._handles.values():
            h.value = 0


#: The default registry every instrumented kernel reports to.
REGISTRY = PerfRegistry()

# Module-level conveniences bound to the default registry.
timer = REGISTRY.timer
timed = REGISTRY.timed
count = REGISTRY.count
counter = REGISTRY.counter
snapshot = REGISTRY.snapshot
reset = REGISTRY.reset
