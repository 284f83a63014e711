"""Compute nodes and their network interfaces."""

from __future__ import annotations

from repro.simkernel import Environment, Event, Resource
from repro.simkernel.errors import SimulationError


class Nic:
    """A network interface with finite injection/ejection bandwidth.

    Bandwidth is shared by acquiring one of ``max_streams`` channel slots per
    direction; each active stream gets the full serialization rate, so with
    ``max_streams=1`` concurrent transfers queue (FIFO) rather than
    subdividing bandwidth.  This models the DMA-engine serialization seen on
    Portals/SeaStar NICs, and is the contention point the DataStager pull
    scheduler (Section III-C of the paper) exists to manage.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        max_streams: int = 1,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        #: bytes per second
        self.bandwidth = float(bandwidth)
        self.send_channel = Resource(env, capacity=max_streams)
        self.recv_channel = Resource(env, capacity=max_streams)
        #: total bytes injected / ejected (monitoring)
        self.bytes_sent = 0
        self.bytes_received = 0


class Node:
    """A compute node: cores, memory and a NIC.

    Memory is tracked explicitly (reserve/free) rather than as a blocking
    resource because the paper's staging buffers fail fast when they exceed
    node memory rather than waiting for it.
    """

    #: simulated time of the current crash, None while up; a class-level
    #: default because a machine builds thousands of nodes and few crash
    failed_at = None

    def __init__(
        self,
        env: Environment,
        node_id: int,
        cores: int = 4,
        memory_bytes: float = 8 * 2**30,
        nic_bandwidth: float = 1.6 * 2**30,
        nic_streams: int = 1,
    ):
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self.env = env
        self.node_id = node_id
        self.num_cores = cores
        self.cores = Resource(env, capacity=cores)
        self.memory_bytes = float(memory_bytes)
        self._memory_used = 0.0
        self.nic = Nic(env, nic_bandwidth, nic_streams)
        #: set by fault injection; a failed node drops traffic and computes
        #: nothing until :meth:`restore` (see :mod:`repro.faults`)
        self.failed = False
        #: compute-time multiplier (> 1 under an injected slow-down)
        self.slow_factor = 1.0

    # -- fault hooks ------------------------------------------------------------

    def fail(self) -> None:
        """Mark the node crashed (fault injection), then tell the run's
        health listeners (``env.health_listeners``)."""
        self.failed = True
        self.failed_at = self.env.now
        for listener in self.env.health_listeners:
            listener(self)

    def restore(self) -> None:
        """Bring the node back after a crash or slow-down, then tell the
        run's health listeners."""
        self.failed = False
        self.failed_at = None
        self.slow_factor = 1.0
        for listener in self.env.health_listeners:
            listener(self)

    # -- memory -----------------------------------------------------------------

    @property
    def memory_used(self) -> float:
        return self._memory_used

    @property
    def memory_free(self) -> float:
        return self.memory_bytes - self._memory_used

    def reserve_memory(self, nbytes: float) -> None:
        """Claim ``nbytes``; raises if the node would exceed physical memory."""
        if nbytes < 0:
            raise ValueError("cannot reserve negative memory")
        if self._memory_used + nbytes > self.memory_bytes:
            raise SimulationError(
                f"node {self.node_id}: out of memory "
                f"(used={self._memory_used:.0f}, request={nbytes:.0f}, "
                f"total={self.memory_bytes:.0f})"
            )
        self._memory_used += nbytes

    def free_memory(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError("cannot free negative memory")
        # Tolerate float round-off from many reserve/free cycles.
        if nbytes > self._memory_used * (1 + 1e-9) + 1e-6:
            raise SimulationError(
                f"node {self.node_id}: freeing {nbytes:.0f} > used {self._memory_used:.0f}"
            )
        self._memory_used = max(0.0, self._memory_used - nbytes)

    def compute(self, seconds: float) -> Event:
        """Occupy one core for ``seconds``; the event fires when done.

        Yields from inside a generator: ``yield node.compute(t)``.  A
        compute that finds a core free (and nobody queued) holds it at once
        and only schedules its ``Timeout``, whose expiry frees the core and
        fires the event; otherwise a process queues for the core first.
        """
        env = self.env
        done = Event(env)
        if self.cores.try_hold(done):
            env.timeout(seconds * self.slow_factor, done).callbacks.append(self._computed)
            return done
        return env.process(self._compute(seconds), name=("compute@{}", self.node_id))

    def _computed(self, timeout) -> None:
        done = timeout.value
        self.cores.release(done)
        done.succeed()

    def _compute(self, seconds: float):
        request = self.cores.request()
        yield request
        try:
            yield self.env.timeout(seconds * self.slow_factor)
        finally:
            self.cores.release(request)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} cores={self.num_cores}>"
