"""Batch scheduler and the Cray ``aprun`` launch-cost model.

The paper factors the cost of ``aprun`` out of its microbenchmarks because it
is "an artifact of the particular OS batch-style scheduling", but reports
observed launch times of **3 to 27 seconds**.  We model that artifact
explicitly and keep it separable (``include_aprun`` flags throughout), so the
experiments can report results both ways, exactly as the paper does.

A second aprun limitation the paper leans on: processes launched by separate
``aprun`` invocations cannot be coalesced onto the same node.  The scheduler
enforces that for MPI-model containers, which is why growing an MPI component
requires full teardown + relaunch while round-robin replicas can simply be
spawned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.simkernel import Environment
from repro.simkernel.errors import SimulationError
from repro.cluster.machine import Partition
from repro.cluster.node import Node
from repro.perf.registry import REGISTRY as PERF


@dataclass
class AprunModel:
    """Stochastic launch-cost model for ``aprun``.

    The paper reports 3–27 s.  We draw from a log-uniform distribution over
    that range: launch cost is dominated by placement and binary broadcast,
    both heavy-tailed in practice.
    """

    min_seconds: float = 3.0
    max_seconds: float = 27.0

    def sample(self, rng: np.random.Generator) -> float:
        if self.min_seconds <= 0 or self.max_seconds < self.min_seconds:
            raise ValueError("invalid aprun cost range")
        lo, hi = np.log(self.min_seconds), np.log(self.max_seconds)
        return float(np.exp(rng.uniform(lo, hi)))


@dataclass
class Job:
    """A launched executable occupying nodes until released."""

    job_id: int
    name: str
    nodes: List[Node]
    launched_at: float
    launch_cost: float
    released: bool = False


class BatchScheduler:
    """Allocates nodes from a partition and models launch costs.

    This is *intra-allocation* scheduling: the user already holds the full
    node set (as on Franklin); the scheduler tracks which staging nodes are
    busy, hands out spares, and charges aprun time for MPI-style launches.
    """

    def __init__(
        self,
        env: Environment,
        pool: Partition,
        aprun: Optional[AprunModel] = None,
        rng: Optional[np.random.Generator] = None,
        label: str = "cluster.scheduler",
    ):
        self.env = env
        self.pool = pool
        self.aprun = aprun or AprunModel()
        self.rng = rng or np.random.default_rng(0)
        self._free: List[Node] = list(pool.nodes)
        self._jobs: Dict[int, Job] = {}
        self._next_job_id = 0
        #: nodes lost to injected crashes; never handed out again
        self.failed_nodes: List[Node] = []
        #: nodes on loan from the fleet arbiter (see :meth:`adopt`)
        self._borrowed: set = set()
        #: perf namespace; fleet tenants use ``fleet.<tenant>`` so holdings
        #: show up per tenant.  Occupancy is published as a monotone pair of
        #: cumulative counters (allocated/released) rather than a raw gauge —
        #: the DST ``monotone_perf`` oracle requires counters never decrease;
        #: the current gauge is the difference (see also :meth:`occupancy`).
        self.label = label
        self._c_allocated = PERF.handle(f"{label}.nodes_allocated")
        self._c_released = PERF.handle(f"{label}.nodes_released")

    # -- inventory -------------------------------------------------------------------

    @property
    def free_nodes(self) -> int:
        return len(self._free)

    @property
    def busy_nodes(self) -> int:
        return len(self.pool) - len(self._free)

    def peek_free(self) -> List[Node]:
        return list(self._free)

    def mark_failed(self, node: Node) -> None:
        """Quarantine a crashed node: pull it from the free pool and any job.

        Idempotent.  The node stays out of circulation until a (hypothetical)
        repair returns it via the free list; recovery protocols treat the
        capacity as permanently lost for the rest of the run.
        """
        if node in self.failed_nodes:
            return
        self.failed_nodes.append(node)
        if node in self._free:
            self._free.remove(node)
        for job in self._jobs.values():
            if node in job.nodes:
                job.nodes.remove(node)

    # -- allocation -------------------------------------------------------------------

    def allocate(self, count: int, name: str = "job") -> Job:
        """Immediately claim ``count`` free nodes (no launch cost).

        Used for round-robin replica spawning, which on the real system rides
        on an existing launch.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if count > len(self._free):
            raise SimulationError(
                f"scheduler: {count} nodes requested for {name!r}, "
                f"{len(self._free)} free"
            )
        nodes = [self._free.pop(0) for _ in range(count)]
        job = Job(
            job_id=self._next_job_id,
            name=name,
            nodes=nodes,
            launched_at=self.env.now,
            launch_cost=0.0,
        )
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        self._c_allocated.add(count)
        PERF.count_max(f"{self.label}.busy_peak", self.busy_nodes)
        return job

    def allocate_specific(self, nodes: List[Node], name: str = "job") -> Job:
        """Claim an explicit node set (used by topology-aware placement)."""
        if not nodes:
            raise ValueError("allocate_specific needs at least one node")
        for node in nodes:
            if node not in self._free:
                raise SimulationError(
                    f"scheduler: node {node.node_id} not free for {name!r}"
                )
        for node in nodes:
            self._free.remove(node)
        job = Job(
            job_id=self._next_job_id,
            name=name,
            nodes=list(nodes),
            launched_at=self.env.now,
            launch_cost=0.0,
        )
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        self._c_allocated.add(len(nodes))
        PERF.count_max(f"{self.label}.busy_peak", self.busy_nodes)
        return job

    def launch(self, count: int, name: str = "job"):
        """Launch an MPI-style executable on ``count`` nodes via aprun.

        Returns a process event whose value is the :class:`Job`.  The launch
        cost is sampled from the aprun model and charged as simulated time.
        """
        return self.env.process(self._launch(count, name), name=f"aprun {name}")

    def _launch(self, count: int, name: str):
        cost = self.aprun.sample(self.rng)
        yield self.env.timeout(cost)
        job = self.allocate(count, name)
        job.launch_cost = cost
        return job

    def release(self, job: Job) -> None:
        """Return a job's nodes to the free pool."""
        if job.released:
            raise SimulationError(f"job {job.job_id} already released")
        job.released = True
        del self._jobs[job.job_id]
        self._free.extend(job.nodes)
        self._c_released.add(len(job.nodes))

    def restock(self, nodes: Iterable[Node]) -> None:
        """Return nodes to the free pool outside a job release: protocol
        aborts and compensations, offline and retire replies.

        A crashed or quarantined node goes to :meth:`mark_failed` instead,
        and a node already free is skipped, so the free list never holds a
        duplicate or a dead node.  Each node returned counts under
        ``nodes_released``, as in :meth:`release`.
        """
        returned = 0
        for node in nodes:
            if node.failed or node in self.failed_nodes:
                self.mark_failed(node)
            elif node not in self._free:
                self._free.append(node)
                returned += 1
        self._c_released.add(returned)

    def release_nodes(self, job: Job, count: int) -> List[Node]:
        """Shrink a job by returning ``count`` of its nodes to the pool.

        Only valid for round-robin jobs; MPI jobs must be torn down whole
        (the aprun coalescing limitation).
        """
        if count <= 0 or count > len(job.nodes):
            raise SimulationError(
                f"cannot release {count} nodes from job with {len(job.nodes)}"
            )
        released = [job.nodes.pop() for _ in range(count)]
        self._free.extend(released)
        self._c_released.add(count)
        return released

    # -- fleet borrowing ---------------------------------------------------------------

    def adopt(self, nodes: List[Node]) -> None:
        """Absorb nodes loaned by the fleet arbiter into this pool.

        The nodes join the partition's node list, the free list, and the
        borrowed set, so ordinary ``allocate`` calls can claim them and
        the arbiter can later reclaim them with :meth:`expel`.
        """
        for node in nodes:
            if node in self.pool.nodes:
                raise SimulationError(
                    f"scheduler: node {node.node_id} already in pool {self.pool.name!r}"
                )
        for node in nodes:
            self.pool.nodes.append(node)
            self._free.append(node)
            self._borrowed.add(node)

    def expel(self, nodes: List[Node]) -> None:
        """Hand borrowed nodes back to the arbiter.  Nodes must be free."""
        for node in nodes:
            if node not in self._free:
                raise SimulationError(
                    f"scheduler: cannot expel busy node {node.node_id}"
                )
        for node in nodes:
            self._free.remove(node)
            self.pool.nodes.remove(node)
            self._borrowed.discard(node)

    def is_borrowed(self, node: Node) -> bool:
        return node in self._borrowed

    def free_borrowed(self) -> List[Node]:
        """Borrowed nodes currently idle — reclaimable by the arbiter."""
        return [node for node in self._free if node in self._borrowed]

    def occupancy(self) -> Dict[str, int]:
        """Point-in-time occupancy snapshot (for reports, not perf counters)."""
        return {
            "pool": len(self.pool),
            "free": self.free_nodes,
            "busy": self.busy_nodes,
            "failed": len(self.failed_nodes),
            "borrowed": len(self._borrowed),
        }
