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

from repro.simkernel import Environment, Resource
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
        """Process: wait for a pull slot; returns the token request.

        Usage::

            token = yield scheduler.admit()
            try:
                yield network.rdma_get(...)
            finally:
                scheduler.release(token)
        """
        return self.env.process(self._admit(), name="pull-admit")

    def _admit(self):
        start = self.env.now
        while self.defer_during_output and self._phase_clear is not None:
            yield self._phase_clear
        request = self._tokens.request()
        yield request
        self.pulls_admitted += 1
        wait = self.env.now - start
        self.total_wait += wait
        REGISTRY.count("datatap.pulls_admitted")
        REGISTRY.record_duration("datatap.pull_admit_wait", wait)
        return request

    def release(self, token) -> None:
        self._tokens.release(token)
