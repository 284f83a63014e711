"""The declarative control-plane protocol engine.

A control protocol — the multi-round message exchanges of Section III-D
(Figure 3) and the D2T two-phase commit (Figure 6) — is declared as a
:class:`ProtocolSpec`: an ordered tuple of named :class:`Round` objects,
each with an optional guard (``when``), handler, per-round timeout,
enter/exit trace labels, and compensation action.  One runtime,
:class:`ControlPlaneEngine`, executes every spec: it runs rounds in order
inside the simulation, charges simulated message/compute costs through the
shared :class:`Context`, enforces round timeouts by interrupting the
handler, unwinds completed rounds' compensations in reverse order on a
:class:`ProtocolAbort`, and emits a structured
:class:`~repro.controlplane.trace.ProtocolTrace` for every execution.

Handlers are either plain callables (instantaneous bookkeeping) or
generators (simulated work: sends, waits, transfers).  They receive the
:class:`Context`, which carries the protocol's mutable state dict and
``round``/``charge`` helpers that record labels and costs on the current
round of the structured trace — the record the Figure 3-5 runners read.

Abort semantics: a handler raises :class:`ProtocolAbort` (optionally with
a ``result`` for the caller); the engine runs the ``compensate`` action of
every *completed* round in reverse order, then the spec-level ``on_abort``
hook, and returns.  :class:`RoundTimeout` is the abort the engine itself
raises when a timed round expires with ``on_timeout="abort"``.
:class:`ProtocolExit` ends a protocol early without the abort path (e.g. a
recovery recheck finding nothing left to do).  Any other exception —
notably :class:`~repro.simkernel.errors.SimulationError` — marks the trace
failed and propagates unchanged to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Dict, Optional, Tuple

from repro.simkernel import Environment, Interrupt
from repro.controlplane.trace import ControlPlaneTrace, ProtocolTrace


class ProtocolAbort(Exception):
    """A protocol run must stop and unwind its completed rounds.

    ``result`` (when not None) becomes the protocol's return value after
    the unwind, unless the abort path sets ``ctx.result`` itself.
    """

    def __init__(self, reason: str, result: Any = None):
        super().__init__(reason)
        self.reason = reason
        self.result = result


class RoundTimeout(ProtocolAbort):
    """A timed round expired and its policy was to abort the protocol."""


class ProtocolExit(Exception):
    """End the protocol early, successfully (no compensation)."""

    def __init__(self, result: Any = None):
        super().__init__("protocol exit")
        self.result = result


def _resolve(label, ctx: "Context") -> Optional[str]:
    if label is None:
        return None
    return label(ctx) if callable(label) else label


def _drive(out):
    """Run a handler result: drive generators, pass plain returns through."""
    if isinstance(out, GeneratorType):
        result = yield from out
        return result
    return out


@dataclass(frozen=True)
class Round:
    """One named round of a protocol."""

    name: str
    #: the round's work; plain callable or generator function of (ctx)
    handler: Optional[Callable[["Context"], Any]] = None
    #: guard: round is skipped (status "skipped") when false at entry
    when: Optional[Callable[["Context"], bool]] = None
    #: trace label emitted before the handler runs (str or callable(ctx))
    enter_label: Any = None
    #: trace label emitted after the handler completes
    exit_label: Any = None
    #: per-round timeout in simulated seconds (number or callable(ctx));
    #: the handler is interrupted when it expires
    timeout: Any = None
    #: "abort" raises RoundTimeout; "continue" proceeds to the next round
    #: with the round marked timed out (presumed-abort style protocols)
    on_timeout: str = "abort"
    #: compensation run (reverse order) when a later round aborts
    compensate: Optional[Callable[["Context"], Any]] = None


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol: an ordered sequence of rounds plus an abort hook."""

    name: str
    rounds: Tuple[Round, ...]
    #: runs after compensations on any ProtocolAbort; receives the context
    #: (the abort itself is available as ``ctx.abort``)
    on_abort: Optional[Callable[["Context"], Any]] = None


class Context:
    """Mutable state shared by a protocol execution's rounds.

    Dict-style access reads/writes the caller-supplied ``data`` mapping
    (shared by reference, so callers observe handler updates).  ``round``
    and ``charge`` record onto the round currently running.
    """

    def __init__(self, env: Environment, spec: ProtocolSpec,
                 trace: ProtocolTrace, data: Optional[Dict[str, Any]]):
        self.env = env
        self.spec = spec
        self.trace = trace
        self.data = data if data is not None else {}
        self.result: Any = None
        #: the ProtocolAbort being handled, during compensation/on_abort
        self.abort: Optional[ProtocolAbort] = None
        self._round = None  # current RoundTrace

    # -- state dict --------------------------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.data[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    # -- tracing -----------------------------------------------------------------------

    def round(self, label: str) -> None:
        """Emit a detail label (a Figure 3 round string)."""
        if self._round is not None:
            self._round.labels.append(label)

    def charge(self, category: str, seconds: float, messages: int = 0) -> None:
        """Charge simulated cost and messages to a category of the round."""
        if self._round is not None:
            rt = self._round
            rt.charged[category] = rt.charged.get(category, 0.0) + seconds
            if messages:
                counts = rt.message_counts
                counts[category] = counts.get(category, 0) + messages


class ControlPlaneEngine:
    """Executes :class:`ProtocolSpec` declarations inside the simulation."""

    def __init__(self, env: Environment,
                 trace: Optional[ControlPlaneTrace] = None):
        self.env = env
        self.trace = trace if trace is not None else ControlPlaneTrace()

    def execute(self, spec: ProtocolSpec, subject: str = "",
                data: Optional[Dict[str, Any]] = None, amount: int = 0):
        """Process: run ``spec``; value is the protocol result.

        ``data`` seeds the context state; ``amount`` is the operation's size
        recorded on its trace (replicas added, removed, replaced or taken
        offline by a container protocol).
        """
        trace = self.trace.begin(spec.name, subject, self.env.now)
        trace.amount = amount
        ctx = Context(self.env, spec, trace, data)
        return self.env.process(self._run(spec, ctx), name=f"cp:{spec.name}")

    # -- execution ---------------------------------------------------------------------

    def _run(self, spec: ProtocolSpec, ctx: Context):
        try:
            status = yield from self._body(spec, ctx)
        except BaseException:
            self.trace.finish(ctx.trace, self.env.now, "failed")
            raise
        self.trace.finish(ctx.trace, self.env.now, status)
        return ctx.result

    def _body(self, spec: ProtocolSpec, ctx: Context):
        completed = []
        try:
            for rnd in spec.rounds:
                now = self.env.now
                rt = ctx.trace.begin_round(rnd.name, now)
                if rnd.when is not None and not rnd.when(ctx):
                    rt.status = "skipped"
                    rt.finished_at = now
                    continue
                ctx._round = rt
                try:
                    label = _resolve(rnd.enter_label, ctx)
                    if label:
                        ctx.round(label)
                    if rnd.handler is not None:
                        timeout = rnd.timeout(ctx) if callable(rnd.timeout) else rnd.timeout
                        if timeout is None:
                            yield from _drive(rnd.handler(ctx))
                        else:
                            done = yield from self._invoke_timed(rnd, ctx, timeout)
                            if not done:
                                rt.status = "timeout"
                                if rnd.on_timeout == "abort":
                                    raise RoundTimeout(
                                        f"round {rnd.name!r} of {spec.name!r} "
                                        f"timed out after {timeout}s",
                                        result=ctx.result,
                                    )
                    label = _resolve(rnd.exit_label, ctx)
                    if label:
                        ctx.round(label)
                finally:
                    rt.finished_at = self.env.now
                    ctx._round = None
                completed.append(rnd)
        except ProtocolExit as stop:
            if stop.result is not None:
                ctx.result = stop.result
            return "committed"
        except ProtocolAbort as abort:
            ctx.abort = abort
            ctx.trace.abort_reason = abort.reason
            yield from self._unwind(spec, ctx, completed)
            if abort.result is not None and ctx.result is None:
                ctx.result = abort.result
            return "aborted"
        return "committed"

    def _invoke_timed(self, rnd: Round, ctx: Context, timeout: float):
        """Run a handler under a deadline; False means it was cut short."""
        proc = self.env.process(self._guarded(rnd, ctx),
                                name=f"cp:{ctx.spec.name}.{rnd.name}")
        timer = self.env.timeout(timeout)
        # A handler failure fails the condition and re-raises here.
        yield self.env.any_of([proc, timer])
        if proc.triggered:
            return True
        proc.interrupt("round timeout")
        yield proc
        return False

    def _guarded(self, rnd: Round, ctx: Context):
        """Handler wrapper absorbing the engine's timeout interrupt."""
        try:
            out = rnd.handler(ctx)
            if isinstance(out, GeneratorType):
                yield from out
        except Interrupt:
            return

    def _unwind(self, spec: ProtocolSpec, ctx: Context, completed):
        """Abort path: reverse compensations, then the spec's abort hook."""
        for rnd in reversed(completed):
            if rnd.compensate is not None:
                ctx.trace.compensated.append(rnd.name)
                yield from _drive(rnd.compensate(ctx))
        if spec.on_abort is not None:
            yield from _drive(spec.on_abort(ctx))
