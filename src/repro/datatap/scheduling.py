"""DataStager-style pull scheduling.

DataStager's contribution (Abbasi et al.) is that *scheduling* the RDMA pulls
— instead of letting every reader pull the moment metadata arrives — avoids
interconnect contention that would otherwise slow the application itself.

:class:`PullScheduler` bounds the number of concurrent pulls into a staging
area and can defer pulls while the application is in an output phase
(priority to simulation traffic).  The ablation tests compare scheduled vs
unscheduled pulls.
"""

from __future__ import annotations

from repro.simkernel import Environment, Event, Interrupt, Resource, processed_event
from repro.simkernel.errors import SimulationError
from repro.perf.registry import REGISTRY


class PullScheduler:
    """Admission control for RDMA pulls into a staging area.

    Parameters
    ----------
    max_concurrent_pulls:
        Token count; each in-flight pull holds one token.
    defer_during_output:
        When True, new pulls wait while the application signals an output
        phase (see :meth:`output_phase_begin` / :meth:`output_phase_end`).
    """

    def __init__(
        self,
        env: Environment,
        max_concurrent_pulls: int = 4,
        defer_during_output: bool = False,
    ):
        if max_concurrent_pulls < 1:
            raise ValueError("max_concurrent_pulls must be >= 1")
        self.env = env
        self._tokens = Resource(env, capacity=max_concurrent_pulls)
        self.defer_during_output = defer_during_output
        self._output_phase_depth = 0
        self._phase_clear = None  # Event set while an output phase is active
        #: monitoring
        self.pulls_admitted = 0
        self.total_wait = 0.0

    @property
    def in_flight(self) -> int:
        return self._tokens.count

    @property
    def queued(self) -> int:
        return len(self._tokens.queue)

    # -- application output phases ------------------------------------------------

    def output_phase_begin(self) -> None:
        """The application started writing output; defer new pulls."""
        self._output_phase_depth += 1
        if self._phase_clear is None:
            self._phase_clear = self.env.event()

    def output_phase_end(self) -> None:
        if self._output_phase_depth == 0:
            raise SimulationError("output_phase_end without matching begin")
        self._output_phase_depth -= 1
        if self._output_phase_depth == 0 and self._phase_clear is not None:
            self._phase_clear.succeed()
            self._phase_clear = None

    # -- admission ------------------------------------------------------------------

    def admit(self):
        """Wait for a pull slot; the event's value is the token to release.

        Usage::

            token = yield scheduler.admit()
            try:
                yield network.rdma_get(...)
            finally:
                scheduler.release(token)

        With no output phase to wait out and a free slot, the token is taken
        now and the returned event has already fired, so the puller resumes
        at once; otherwise a process waits for the phase and the slot.
        """
        if not (self.defer_during_output and self._phase_clear is not None):
            token = object()
            if self._tokens.try_hold(token):
                self._account(0.0)
                return processed_event(self.env, token)
        return self.env.process(self._admit(), name="pull-admit")

    def _admit(self):
        start = self.env.now
        request = None
        try:
            while self.defer_during_output and self._phase_clear is not None:
                yield self._phase_clear
            request = self._tokens.request()
            yield request
        except Interrupt:
            # withdrawn: leave the queue, or give back a slot just granted
            if request is not None:
                request.cancel()
            return None
        self._account(self.env.now - start)
        return request

    def withdraw(self, admission) -> None:
        """Cancel an :meth:`admit` whose puller stopped before it resumed
        with the token.

        Stopped while the admission was still queued, or after the slot was
        granted but before the puller resumed, the puller would otherwise
        leave the slot taken for good.
        """
        if admission.is_alive:
            admission.interrupt("withdrawn")
        else:
            self.release(admission.value)

    def _account(self, wait: float) -> None:
        self.pulls_admitted += 1
        self.total_wait += wait
        REGISTRY.count("datatap.pulls_admitted")
        REGISTRY.record_duration("datatap.pull_admit_wait", wait)

    def release(self, token) -> None:
        self._tokens.release(token)


class NoPullScheduler:
    """Unscheduled pulls: :meth:`admit` hands back an already processed
    event, so a reader's ``yield`` resumes at once and schedules nothing.
    Its token is None, which the reader never releases."""

    def __init__(self, env: Environment):
        self._admitted = processed_event(env)

    def admit(self) -> Event:
        return self._admitted

    def output_phase_begin(self) -> None:
        pass

    output_phase_end = output_phase_begin
