"""A machine = nodes + network, partitioned for an application run."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.simkernel import Environment
from repro.simkernel.errors import SimulationError
from repro.cluster.network import Network
from repro.cluster.node import Node


class Partition:
    """A named slice of a machine's nodes (e.g. "simulation", "staging")."""

    def __init__(self, name: str, nodes: List[Node]):
        self.name = name
        self.nodes = list(nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index):
        return self.nodes[index]

    def __repr__(self) -> str:
        return f"<Partition {self.name!r} nodes={len(self.nodes)}>"


class Torus3D:
    """A 3-D torus interconnect (the XT4 / RedSky shape) with closed-form routing.

    Node id ``x*(b*c) + y*c + z`` sits at coordinate ``(x, y, z)`` of a torus
    of shape ``(a, b, c)``.  Minimal routing takes the shorter way round each
    ring, so the hop count is ``sum(min(|d|, s - |d|))`` over the three axes.
    """

    __slots__ = ("shape", "_size")

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(shape)
        a, b, c = self.shape
        self._size = a * b * c

    def number_of_nodes(self) -> int:
        return self._size

    def hops(self, u: int, v: int) -> int:
        """Shortest-path hop count between node ids ``u`` and ``v``."""
        size = self._size
        if not (0 <= u < size and 0 <= v < size):
            raise ValueError(f"node ids ({u}, {v}) outside torus of {size} nodes")
        a, b, c = self.shape
        bc = b * c
        dx = abs(u // bc - v // bc)
        dy = abs(u // c % b - v // c % b)
        dz = abs(u % c - v % c)
        return min(dx, a - dx) + min(dy, b - dy) + min(dz, c - dz)


def torus_3d(shape: Sequence[int]) -> Torus3D:
    """Build a 3-D torus topology (the XT4 / RedSky interconnect shape)."""
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ValueError(f"shape must be three positive dims, got {shape}")
    return Torus3D(shape)


class Machine:
    """A collection of nodes joined by a network, with named partitions.

    Parameters mirror what the paper's platforms expose: node count, cores
    and memory per node, NIC bandwidth, and the interconnect topology.
    """

    def __init__(
        self,
        env: Environment,
        num_nodes: int,
        cores_per_node: int = 4,
        memory_per_node: float = 8 * 2**30,
        nic_bandwidth: float = 1.6 * 2**30,
        nic_streams: int = 1,
        topology: Optional[Torus3D] = None,
        network_kwargs: Optional[dict] = None,
        name: str = "machine",
    ):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if topology is not None and topology.number_of_nodes() < num_nodes:
            raise ValueError(
                f"topology has {topology.number_of_nodes()} nodes < num_nodes={num_nodes}"
            )
        self.env = env
        self.name = name
        self.nodes: List[Node] = [
            Node(
                env,
                node_id=i,
                cores=cores_per_node,
                memory_bytes=memory_per_node,
                nic_bandwidth=nic_bandwidth,
                nic_streams=nic_streams,
            )
            for i in range(num_nodes)
        ]
        self.network = Network(env, topology=topology, **(network_kwargs or {}))
        self._partitions: Dict[str, Partition] = {}
        self._next_free = 0

    # -- partitioning ---------------------------------------------------------------

    def partition(self, name: str, count: int) -> Partition:
        """Carve the next ``count`` unassigned nodes into a named partition.

        Mirrors the batch-scheduler reality the paper describes: the user
        gets one allocation and must split it between simulation and staging
        up front.
        """
        if name in self._partitions:
            raise SimulationError(f"partition {name!r} already exists")
        if self._next_free + count > len(self.nodes):
            raise SimulationError(
                f"cannot allocate {count} nodes for {name!r}: only "
                f"{len(self.nodes) - self._next_free} remain"
            )
        nodes = self.nodes[self._next_free : self._next_free + count]
        self._next_free += count
        part = Partition(name, nodes)
        self._partitions[name] = part
        return part

    def get_partition(self, name: str) -> Partition:
        return self._partitions[name]

    @property
    def unallocated(self) -> int:
        return len(self.nodes) - self._next_free

    def __repr__(self) -> str:
        return f"<Machine {self.name!r} nodes={len(self.nodes)}>"
