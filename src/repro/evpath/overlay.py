"""Dynamic monitoring overlays: k-ary aggregation trees over nodes.

The paper (Section III-E, leaning on Wang et al., ICAC'11) gathers metrics
through lightweight 'dynamic overlays' so monitoring traffic does not
perturb the application.  We build a k-ary tree over the participating
nodes; leaves submit metric records, and the tree offers two delivery
modes:

* **immediate** (``flush_interval=None``) — each record propagates leaf to
  root as it arrives, paying network cost per tree edge;
* **windowed** (``flush_interval=w``) — interior vertices buffer records
  and forward one aggregated message per window, so the root's NIC sees
  ``fanout`` messages per window instead of one per leaf report.  This is
  the configurability the paper highlights: "(ii) how often they are
  captured, and (iii) how they are processed and where such processing is
  done".

Edge traffic is counted per vertex so tests can quantify the perturbation
difference between direct reporting and overlay aggregation.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.simkernel import Environment, Interrupt
from repro.simkernel.errors import FaultError, SimulationError
from repro.cluster.node import Node
from repro.evpath.channel import Messenger

#: wire size of one report message on a tree edge (aggregated or not)
REPORT_BYTES = 512


class _OverlayVertex:
    __slots__ = ("node", "parent", "children", "buffer", "flusher")

    def __init__(self, node: Node, parent: Optional["_OverlayVertex"]):
        self.node = node
        self.parent = parent
        self.children: List["_OverlayVertex"] = []
        self.buffer: List[Any] = []
        self.flusher = None


class NoOverlay:
    """Direct monitoring: managers report straight to the global manager."""

    def join(self, reporter) -> None:
        """Nothing to join: ``reporter`` keeps reporting directly."""

    def stop(self) -> None:
        pass


class OverlayTree:
    """A k-ary aggregation tree rooted at ``root_node``.

    Parameters
    ----------
    aggregate:
        ``aggregate(records: list) -> list`` combining buffered records into
        the (possibly smaller) list forwarded upward.  Defaults to identity
        (records travel individually but share one message per window).
    fanout:
        Maximum children per interior vertex.
    flush_interval:
        None for immediate propagation; a window length for batching.
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        root_node: Node,
        leaf_nodes: Sequence[Node],
        on_report: Callable[[Any], None],
        aggregate: Optional[Callable[[List[Any]], List[Any]]] = None,
        fanout: int = 4,
        flush_interval: Optional[float] = None,
    ):
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if not leaf_nodes:
            raise ValueError("overlay needs at least one leaf node")
        if flush_interval is not None and flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        self.env = env
        self.messenger = messenger
        self.on_report = on_report
        self.aggregate = aggregate or (lambda records: list(records))
        self.fanout = fanout
        self.flush_interval = flush_interval
        #: total tree-edge messages (perturbation accounting)
        self.messages = 0
        #: messages arriving at the root vertex's node (hot-spot accounting)
        self.root_ingress = 0
        #: reports lost on a faulted tree edge (dead node, drop window)
        self.dropped_reports = 0

        self.root = _OverlayVertex(root_node, None)
        self._leaves: Dict[int, _OverlayVertex] = {}
        self._vertices: List[_OverlayVertex] = [self.root]
        self._build(list(leaf_nodes))
        if flush_interval is not None:
            for vertex in self._vertices:
                if vertex.children or vertex is self.root:
                    vertex.flusher = env.process(
                        self._flush_loop(vertex), name="overlay-flush"
                    )

    def _build(self, leaf_nodes: List[Node]) -> None:
        """Arrange leaves under the root in a balanced k-ary tree."""
        vertices = [_OverlayVertex(node, None) for node in leaf_nodes]
        for vertex in vertices:
            # Last writer wins when several leaves share a node; submit()
            # accepts any registered leaf node.
            self._leaves[vertex.node.node_id] = vertex
        self._vertices.extend(vertices)
        layer = vertices
        while len(layer) > self.fanout:
            parents: List[_OverlayVertex] = []
            for i in range(0, len(layer), self.fanout):
                group = layer[i : i + self.fanout]
                # Parent vertex co-located with its first child: interior
                # aggregation runs on a participating node, not a new one.
                parent = _OverlayVertex(group[0].node, None)
                for child in group:
                    child.parent = parent
                    parent.children.append(child)
                parents.append(parent)
            self._vertices.extend(parents)
            layer = parents
        for vertex in layer:
            vertex.parent = self.root
            self.root.children.append(vertex)

    # -- reporting -----------------------------------------------------------------

    def depth(self) -> int:
        """Longest leaf-to-root edge count."""

        def walk(vertex: _OverlayVertex) -> int:
            if not vertex.children:
                return 0
            return 1 + max(walk(child) for child in vertex.children)

        return walk(self.root)

    def join(self, reporter) -> None:
        """Route ``reporter``'s metric reports through the tree.

        ``reporter`` has a ``node`` and a ``send_report`` hook (a container's
        local manager).  A node that is not a leaf yet becomes one, hung
        straight off the root: a stage launched into a built tree needs no
        new interior vertex and so no new flusher.
        """
        node = reporter.node
        if node.node_id not in self._leaves:
            vertex = self._leaves[node.node_id] = _OverlayVertex(node, self.root)
            self.root.children.append(vertex)
            self._vertices.append(vertex)
        reporter.send_report = partial(self.submit, node)

    def submit(self, leaf_node: Node, record: Any):
        """Submit a metric record at a leaf; returns the delivery process."""
        vertex = self._leaves.get(leaf_node.node_id)
        if vertex is None:
            raise SimulationError(f"node {leaf_node.node_id} is not an overlay leaf")
        if self.flush_interval is None:
            return self.env.process(self._propagate_immediate(vertex, record),
                                    name="overlay-report")
        return self.env.process(self._submit_windowed(vertex, record),
                                name="overlay-report")

    def _send_edge(self, src: _OverlayVertex, dst: _OverlayVertex):
        if dst.node is not src.node:
            self.messages += 1
            if dst is self.root or dst.node is self.root.node:
                self.root_ingress += 1
            return self.messenger.network.transfer(src.node, dst.node, REPORT_BYTES)
        return self.env.timeout(0)

    def _propagate_immediate(self, vertex: _OverlayVertex, record: Any):
        current = [record]
        while vertex.parent is not None:
            parent = vertex.parent
            try:
                yield self._send_edge(vertex, parent)
            except FaultError:
                # Monitoring is best-effort: a faulted edge loses the
                # report, it must not kill the reporting process.
                self.dropped_reports += 1
                return current
            if parent is self.root:
                break
            current = self.aggregate(current)
            vertex = parent
        for item in self.aggregate(current):
            self.on_report(item)
        return current

    def _submit_windowed(self, vertex: _OverlayVertex, record: Any):
        parent = vertex.parent
        try:
            yield self._send_edge(vertex, parent)
        except FaultError:
            self.dropped_reports += 1
            return
        parent.buffer.append(record)

    def _flush_loop(self, vertex: _OverlayVertex):
        while True:
            try:
                yield self.env.timeout(self.flush_interval)
            except Interrupt:
                return
            if not vertex.buffer:
                continue
            records, vertex.buffer = self.aggregate(vertex.buffer), []
            if vertex is self.root:
                for record in records:
                    self.on_report(record)
                continue
            try:
                yield self._send_edge(vertex, vertex.parent)
            except Interrupt:
                return
            except FaultError:
                # The whole window is lost, but the flusher survives to
                # forward the next one once the fault clears.
                self.dropped_reports += len(records)
                continue
            vertex.parent.buffer.extend(records)

    def stop(self) -> None:
        for vertex in self._vertices:
            if vertex.flusher is not None and vertex.flusher.is_alive:
                vertex.flusher.interrupt("stop")
