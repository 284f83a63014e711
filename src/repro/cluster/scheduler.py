"""Batch scheduler and the Cray ``aprun`` launch-cost model.

The paper factors the cost of ``aprun`` out of its microbenchmarks because it
is "an artifact of the particular OS batch-style scheduling", but reports
observed launch times of **3 to 27 seconds**.  We model that artifact as
a separate cost (:class:`AprunModel`), charged only where the paper's system
pays it: the relaunch of an MPI-model (PARALLEL) container, whose ranks were
started by one ``aprun`` and cannot be coalesced with processes from another,
so growing it means a full teardown and relaunch.  Round-robin replicas ride
on an existing launch and are spawned in place, at no aprun cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

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


#: owner of an idle node in the spare pool
FREE = "free"
#: owner of a crashed node, quarantined for the rest of the run
FAILED = "failed"


def container_owner(name: str) -> str:
    """The owner of a node a container holds as a replica or standby node."""
    return f"container:{name}"


class BatchScheduler:
    """Records the one owner of every node of a partition and hands out spares.

    This is *intra-allocation* scheduling: the user already holds the full
    node set (as on Franklin).  A node's owner is :data:`FREE`,
    :data:`FAILED`, the :func:`container_owner` of the container running a
    replica (or keeping a standby reservation) on it, or the
    :class:`~repro.controlplane.trace.ProtocolTrace` of the protocol run
    holding it in flight.  Every handoff is a checked :meth:`move`.
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
        #: node -> owner, in move order: free nodes iterate in the order
        #: they became free, so allocation takes the longest-idle first
        self._owner: Dict[Node, Any] = {node: FREE for node in pool.nodes}
        #: nodes on loan from the fleet arbiter (see :meth:`adopt`), free
        #: or held
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
        return list(self._owner.values()).count(FREE)

    @property
    def busy_nodes(self) -> int:
        return len(self._owner) - self.free_nodes

    def owner(self, node: Node) -> Any:
        """The node's current owner (None for a node outside the pool)."""
        return self._owner.get(node)

    def owners(self) -> List[Tuple[Node, Any]]:
        """Every pool node with its owner, in move order."""
        return list(self._owner.items())

    def owned_by(self, owner: Any) -> List[Node]:
        return [node for node, held in self._owner.items() if held == owner]

    def peek_free(self) -> List[Node]:
        return self.owned_by(FREE)

    # -- moves ----------------------------------------------------------------------

    def move(self, nodes: Iterable[Node], to: Any, expect: Any) -> None:
        """Hand ``nodes`` from owner ``expect`` to owner ``to``, or raise
        :class:`SimulationError` (moving none) if one has another owner.

        A crashed node's only owner is :data:`FAILED`: it stays there, and
        a crashed node not yet quarantined is quarantined.  Nodes leaving
        and entering the free pool count under ``nodes_allocated`` and
        ``nodes_released``.
        """
        owner = self._owner
        nodes = [node for node in nodes if owner.get(node) != FAILED]
        for node in nodes:
            if owner.get(node) != expect:
                raise SimulationError(
                    f"scheduler: node {node.node_id} is owned by "
                    f"{owner.get(node)}, not {expect}"
                )
        claimed = returned = 0
        for node in nodes:
            held = owner.pop(node)
            target = FAILED if node.failed else to
            owner[node] = target
            if target == FREE:
                returned += 1
            elif held == FREE:
                claimed += 1
        if claimed:
            self._c_allocated.add(claimed)
            PERF.count_max(f"{self.label}.busy_peak", self.busy_nodes)
        if returned:
            self._c_released.add(returned)

    def mark_failed(self, node: Node) -> None:
        """Quarantine a crashed node, whoever owns it.

        Idempotent, and a no-op for a node outside the pool.  The node stays
        out of circulation for the rest of the run; recovery protocols treat
        the capacity as permanently lost.
        """
        held = self._owner.get(node)
        if held is not None:
            self.move([node], FAILED, held)

    def restock(self, nodes: Iterable[Node], holder: Any) -> None:
        """Return ``holder``'s nodes to the free pool: protocol aborts and
        compensations, decrease, offline and retire.  Crashed nodes are
        quarantined instead."""
        self.move(nodes, FREE, holder)

    # -- allocation -------------------------------------------------------------------

    def allocate(self, count: int, owner: Any) -> List[Node]:
        """Immediately hand the ``count`` longest-idle free nodes to ``owner``
        (no launch cost: round-robin replicas ride on an existing launch)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        free = self.peek_free()
        if count > len(free):
            raise SimulationError(
                f"scheduler: {count} nodes requested for {owner}, "
                f"{len(free)} free"
            )
        return self.allocate_specific(free[:count], owner)

    def allocate_specific(self, nodes: List[Node], owner: Any) -> List[Node]:
        """Hand an explicit free node set to ``owner`` (topology-aware
        placement)."""
        if not nodes:
            raise ValueError("allocate_specific needs at least one node")
        self.move(nodes, owner, FREE)
        return list(nodes)

    # -- fleet borrowing ---------------------------------------------------------------

    def adopt(self, nodes: List[Node]) -> None:
        """Absorb nodes loaned by the fleet arbiter into this pool.

        The nodes join the partition's node list as free nodes and the
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
            self._owner[node] = FREE
            self._borrowed.add(node)

    def expel(self, nodes: List[Node]) -> None:
        """Hand borrowed nodes back to the arbiter.  Nodes must be free."""
        for node in nodes:
            if self._owner.get(node) != FREE:
                raise SimulationError(
                    f"scheduler: cannot expel busy node {node.node_id}"
                )
        for node in nodes:
            del self._owner[node]
            self.pool.nodes.remove(node)
            self._borrowed.discard(node)

    def is_borrowed(self, node: Node) -> bool:
        return node in self._borrowed

    def free_borrowed(self) -> List[Node]:
        """Borrowed nodes currently idle — reclaimable by the arbiter."""
        return [node for node, held in self._owner.items()
                if held == FREE and node in self._borrowed]

    def occupancy(self) -> Dict[str, int]:
        """Point-in-time occupancy snapshot (for reports, not perf counters)."""
        return {
            "pool": len(self.pool),
            "free": self.free_nodes,
            "busy": self.busy_nodes,
            "failed": len(self.owned_by(FAILED)),
            "borrowed": len(self._borrowed),
        }
