"""Bench-side instrumentation: what a unit created, and where its time went.

Nothing here edits the program.  :class:`Instrumentation` patches a few
public classes and functions for the life of a ``with`` block:

* **capture** (always on): every :class:`~repro.simkernel.Environment` and
  :class:`~repro.containers.pipeline.Pipeline` a unit constructs is
  recorded, and the wall time spent inside ``repro.spec.build.build`` (the
  one spec compiler every pipeline goes through), less any host-speed
  sampling during it, is accumulated as the unit's set-up time.  These
  hooks fire once per environment, pipeline or compile, never per event,
  so untraced measurements stay unperturbed.
* **tracing** (``trace=True``): while :attr:`LayerClock.active` is set,
  each new environment is re-typed to :class:`TracedEnvironment`, whose
  ``run()`` is a copy of ``Environment.run`` that times every event
  callback and charges it to the package that owns it.  The public entry
  points in :data:`SPAN_POINTS` are wrapped so each call becomes a nested
  span.  Self time is exclusive: a layer's clock stops while a nested
  callback or span of another layer runs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
from collections import Counter
from heapq import heappop
from time import perf_counter
from typing import Dict, List, Optional

import repro
from repro.containers.pipeline import Pipeline
from repro.simkernel import Environment, Event, Process
from repro.simkernel.errors import FaultError, SimulationError

from hostspeed import HostSampler

#: the program's layers, named after the ``repro`` packages; ``recording``
#: folds ``perf`` and ``monitoring`` together
LAYERS = (
    "simkernel", "evpath", "cluster", "datatap", "containers",
    "controlplane", "faults", "overload", "analytics", "adios", "fleet",
    "dst", "spec", "transactions", "lammps", "smartpointer", "recording",
)
#: time outside every layer: bench code, experiment runners, other modules
OTHER = "other"
_PACKAGE_LAYER = {name: name for name in LAYERS}
_PACKAGE_LAYER.update(perf="recording", monitoring="recording")
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: (module, attribute path, span name, layer): the public entry points a
#: traced run records as spans.  Module-level functions are replaced in
#: every ``repro`` module that imported them by name.
SPAN_POINTS = (
    ("repro.evpath.channel", "Messenger.send", "evpath.send", "evpath"),
    ("repro.cluster.network", "Network.transfer", "cluster.transfer", "cluster"),
    ("repro.cluster.network", "Network.rdma_get", "cluster.rdma_get", "cluster"),
    ("repro.cluster.network", "Network.hops", "cluster.hops", "cluster"),
    ("repro.cluster.presets", "franklin", "cluster.machine", "cluster"),
    ("repro.cluster.presets", "redsky", "cluster.machine", "cluster"),
    ("repro.datatap.writer", "DataTapWriter.write", "datatap.write", "datatap"),
    ("repro.datatap.scheduling", "PullScheduler.admit", "datatap.admit", "datatap"),
    ("repro.controlplane.engine", "ControlPlaneEngine.execute",
     "controlplane.execute", "controlplane"),
    ("repro.overload.shed", "ShedLedger.record", "overload.shed_record", "overload"),
    ("repro.adios.spill", "SpillLedger.record", "adios.spill_record", "adios"),
    ("repro.adios.spill", "SpillStore.write_segment", "adios.write_segment", "adios"),
    ("repro.adios.spill", "SpillStore.read_segment", "adios.read_segment", "adios"),
    ("repro.analytics.predictive", "PredictiveManager.sample", "analytics.sample",
     "analytics"),
    ("repro.fleet.arbiter", "FleetArbiter.request", "fleet.request", "fleet"),
    ("repro.fleet.arbiter", "FleetArbiter.give_back", "fleet.give_back", "fleet"),
    ("repro.dst.invariants", "InvariantMonitor.sweep", "dst.sweep", "dst"),
    ("repro.spec.build", "load_preset", "spec.load_preset", "spec"),
    # repro.spec.build.build is wrapped by Instrumentation itself: its span
    # sits inside the set-up timer every run keeps
)

_INF = float("inf")
_PENDING = Event.PENDING


def layer_of_file(filename: str) -> str:
    """The layer owning a source file: its ``repro`` package, else other."""
    if not filename.startswith(_REPRO_DIR):
        return OTHER
    package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
    if package.endswith(".py"):
        package = package[:-3]
    return _PACKAGE_LAYER.get(package, OTHER)


def layer_of_module(module: Optional[str]) -> str:
    if module == "builtins":
        return "simkernel"  # bound methods of containers the engine hands out
    if not module or not module.startswith("repro."):
        return OTHER
    return _PACKAGE_LAYER.get(module.split(".")[1], OTHER)


class LayerClock:
    """Exclusive (self) time and callback counts per layer, plus spans.

    ``push``/``pop`` bracket a frame of one layer; the time since the last
    boundary is charged to the frame on top, so nested frames never count
    twice and the per-layer totals add up to the bracketed wall time.
    """

    def __init__(self):
        self.active = False
        self.unit = -1
        self.self_s: Dict[str, float] = {}
        self.events: Counter = Counter()
        #: (name, start, end, parent index or -1, unit) per wrapped call
        self.spans: List[tuple] = []
        self._stack: List[str] = []
        self._top = OTHER
        self._last = 0.0
        self._span_parent = -1
        self._owners: dict = {}
        self.origin = perf_counter()

    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        self.self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        self.events = Counter()
        self._stack = []
        self._top = OTHER
        self._span_parent = -1
        self._last = perf_counter()
        self.active = True

    def end_unit(self) -> None:
        self.self_s[self._top] += perf_counter() - self._last
        self.active = False

    def push(self, layer: str) -> float:
        now = perf_counter()
        self.self_s[self._top] += now - self._last
        self._stack.append(self._top)
        self._top = layer
        self._last = now
        return now

    def pop(self) -> float:
        now = perf_counter()
        self.self_s[self._top] += now - self._last
        self._top = self._stack.pop()
        self._last = now
        return now

    def unwind(self, depth: int) -> None:
        """Drop frames above ``depth`` (an exception escaped a callback)."""
        while len(self._stack) > depth:
            self.pop()

    def owner(self, callback) -> str:
        """The layer of an event callback: the code file of a process's
        generator, the module of a bound method's class, or the module of
        a plain function."""
        bound = getattr(callback, "__self__", None)
        if bound is None:
            key = getattr(callback, "__code__", callback)
        elif type(bound) is Process:
            key = bound._generator.gi_code
        else:
            key = getattr(callback, "__func__", None) or type(bound)
        layer = self._owners.get(key)
        if layer is None:
            if hasattr(key, "co_filename"):
                layer = layer_of_file(key.co_filename)
            elif isinstance(key, type):
                layer = layer_of_module(key.__module__)
            else:
                layer = layer_of_module(getattr(key, "__module__", None))
            self._owners[key] = layer
        return layer

    def span(self, name: str, layer: str, fn):
        """Wrap ``fn`` so each call while active is a span of ``layer``."""
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not clock.active:
                return fn(*args, **kwargs)
            depth = len(clock._stack)
            start = clock.push(layer)
            parent = clock._span_parent
            index = clock._span_parent = len(clock.spans)
            clock.spans.append(None)
            label = name
            try:
                result = fn(*args, **kwargs)
                # a send's process path returns a Process, _FastSend an Event
                if name == "evpath.send" and type(result) is Process:
                    label = "evpath.send.process"
                return result
            finally:
                clock.unwind(depth + 1)
                end = clock.pop()
                clock._span_parent = parent
                clock.spans[index] = (label, start, end, parent, clock.unit)

        return wrapper

    def span_counts(self, unit: int) -> Counter:
        return Counter(s[0] for s in self.spans if s[4] == unit)

    def span_seconds(self, unit: int, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[4] == unit and s[0] == name)

    def write_spans(self, path: str) -> None:
        rows = [[n, s - self.origin, e - self.origin, p, u]
                for n, s, e, p, u in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "unit"],
                       "spans": rows}, fh)


class TracedEnvironment(Environment):
    """``Environment.run`` with every event callback timed and attributed.

    The loop is a line-for-line copy of the engine's general loop body —
    same pops, same clock updates, same tombstone skips, same failure
    handling — so the schedule is identical; only clock reads are added.
    """

    clock: LayerClock = None

    def run(self, until=None):
        if not self.clock.active:  # e.g. the untimed drain after a unit
            return Environment.run(self, until)
        if until is None:
            stop = None
            horizon = _INF
        elif isinstance(until, Event):
            stop = until
            horizon = _INF
            if stop.callbacks is None:
                if stop._value is not _PENDING and not stop._ok:
                    stop._defused = True
                    raise stop._value
                return stop._value
            if stop._cancelled:
                stop._cancelled = False
                self._tombstones -= 1
            done = []
            stop.callbacks.append(done.append)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past (now={self._now})")
            stop = None

        clock = self.clock
        push, pop_frame, owner, counts = clock.push, clock.pop, clock.owner, clock.events
        depth = len(clock._stack)
        push("simkernel")
        queue = self._queue
        processed = 0
        skipped = 0
        try:
            while queue:
                entry = queue[0]
                if entry[0] > horizon:
                    self._now = horizon
                    return None
                entry = heappop(queue)
                event = entry[3]
                self._now = entry[0]
                callbacks = event.callbacks
                event.callbacks = None
                if event._cancelled:
                    event._cancelled = False
                    self._tombstones -= 1
                    skipped += 1
                    continue
                for callback in callbacks:
                    layer = owner(callback)
                    counts[layer] += 1
                    push(layer)
                    callback(event)
                    pop_frame()
                processed += 1
                if not event._ok and not event._defused:
                    if isinstance(event._value, FaultError):
                        self.swallowed_faults += 1
                    else:
                        raise event._value
                if stop is not None and stop.callbacks is None:
                    if not stop._ok:
                        stop._defused = True
                        raise stop._value
                    return stop._value
        finally:
            self.events_processed += processed
            self.tombstones_skipped += skipped
            clock.unwind(depth + 1)
            pop_frame()

        if stop is not None:
            raise SimulationError("schedule is empty but the `until` event never fired")
        if horizon is not _INF:
            self._now = horizon
        elif self._compacted_horizon > self._now:
            self._now = self._compacted_horizon
        return None


class Capture:
    """What one unit constructed, and its spec compiles (set-up)."""

    def __init__(self):
        self.envs: List[Environment] = []
        self.pipes: List[Pipeline] = []
        #: (seconds, host-sampler segment) of each spec compile
        self.builds: List[tuple] = []


class Instrumentation:
    """Installs the capture hooks (and, with ``trace``, the tracer) for the
    duration of a ``with`` block and restores every patch on exit.
    ``host`` samples the host's speed during the units that ask for it."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.clock = LayerClock()
        self.capture = Capture()
        self.host = HostSampler()
        self._undo: List[tuple] = []

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, module, attr: str, wrapper) -> None:
        """Swap a module-level function in every ``repro`` module holding it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)

    def __enter__(self) -> "Instrumentation":
        # import every module that might bind the patched functions by name
        for module in {m for m, *_ in SPAN_POINTS} | {
            "repro.containers.presets", "repro.dst.presets", "repro.dst.scenario",
            "repro.experiments.figures", "repro.fleet.fleet", "repro.fleet.scenario",
            "repro.overload.scenario", "repro.spec.fuzz",
        }:
            importlib.import_module(module)
        inst = self
        env_init = Environment.__init__
        pipe_init = Pipeline.__init__

        def init_env(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            if inst.clock.active and type(env) is Environment:
                env.__class__ = TracedEnvironment
            inst.capture.envs.append(env)

        def init_pipe(pipe, *args, **kwargs):
            pipe_init(pipe, *args, **kwargs)
            inst.capture.pipes.append(pipe)

        self._set(Environment, "__init__", init_env)
        self._set(Pipeline, "__init__", init_pipe)
        TracedEnvironment.clock = self.clock

        spec_build = importlib.import_module("repro.spec.build")
        compile_spec = spec_build.build
        if self.trace:
            for module_name, path, name, layer in SPAN_POINTS:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, attr, self.clock.span(name, layer, cls.__dict__[attr]))
                else:
                    self._replace_function(module, path,
                                           self.clock.span(name, layer, getattr(module, path)))
            compile_spec = self.clock.span("spec.build", "spec", compile_spec)

        host = self.host

        @functools.wraps(spec_build.build)
        def timed_build(*args, **kwargs):
            start, paused, segment = perf_counter(), host.paused, host.segment()
            try:
                return compile_spec(*args, **kwargs)
            finally:
                seconds = perf_counter() - start - (host.paused - paused)
                inst.capture.builds.append((seconds, segment))

        self._replace_function(spec_build, "build", timed_build)
        self.host.install()
        return self

    def __exit__(self, *exc) -> None:
        self.host.uninstall()
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        TracedEnvironment.clock = None

    def fresh_capture(self) -> Capture:
        self.capture = Capture()
        return self.capture


def unit_digest(capture: Capture) -> str:
    """Digest of a unit's deterministic outputs: per environment the events
    processed and final clock; per pipeline every exit, shed and spill
    record and degradation step.  Chunk ids ride a process-global counter
    and are excluded."""

    def strip(records):
        return [{k: v for k, v in r.items() if k != "chunk_id"} for r in records]

    doc = {
        "envs": [[env.events_processed, env.now] for env in capture.envs],
        "pipes": [
            {
                "exits": [list(e) for e in pipe.end_to_end],
                "sinks": [list(e) for e in pipe.exit_log],
                "shed": strip(pipe.shed_ledger.as_dicts()),
                "spill": strip(pipe.spill_ledger.as_dicts()) if pipe.spill_ledger else [],
                "degradation": pipe.degradation.as_dicts(),
            }
            for pipe in capture.pipes
        ],
    }
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()
