"""Interconnect model: topology hops + NIC contention.

Model
-----
A transfer of ``n`` bytes from node *a* to node *b* takes

    ``software_overhead + base_latency + hops(a, b) * hop_latency
      + n / min(bw_a, bw_b)``

where the serialization term only starts once the transfer holds one send
channel on *a*'s NIC and one receive channel on *b*'s NIC.  Channel slots are
the contention points; the torus core is assumed over-provisioned relative to
injection bandwidth (true of the XT4 SeaStar for the message sizes here).

Hop counts on a 3-D torus are closed-form (the shorter way round each of
the three rings, see :class:`~repro.cluster.machine.Torus3D`) and memoized
per unordered (src, dst) pair, since every transfer asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.simkernel import Environment
from repro.simkernel.errors import FaultError
from repro.cluster.node import Node

if TYPE_CHECKING:
    from repro.cluster.machine import Torus3D

#: memo key for an unordered node pair: ``lo * _PAIR_KEY + hi``, unique for
#: ids below 2**20 (a 101^3 torus).  An int, not a tuple, so a lookup
#: allocates nothing the garbage collector tracks.
_PAIR_KEY = 2**20


class TransferError(FaultError):
    """A transfer lost to an injected fault (dead endpoint, drop, partition).

    Subclasses :class:`FaultError`, so a fire-and-forget transfer failing
    this way is counted and swallowed by the environment rather than
    crashing the run; waiters see the exception normally and may retry.
    """


@dataclass
class TransferStats:
    """Aggregate transfer accounting for a :class:`Network` (monitoring)."""

    messages: int = 0
    bytes: float = 0.0
    busy_time: float = 0.0
    wait_time: float = 0.0
    per_pair: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: float, busy: float, waited: float) -> None:
        self.messages += 1
        self.bytes += nbytes
        self.busy_time += busy
        self.wait_time += waited
        key = (src, dst)
        self.per_pair[key] = self.per_pair.get(key, 0) + 1


class Network:
    """Point-to-point transfers over a 3-D torus or a flat network.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        :class:`~repro.cluster.machine.Torus3D` whose node ids are the
        machine's; hop counts are closed-form.  ``None`` means a "flat"
        network (every pair is 1 hop).
    base_latency:
        Fixed wire latency per message, seconds.
    hop_latency:
        Additional latency per topology hop, seconds.
    software_overhead:
        Per-message CPU/software cost (matching, completion), seconds.
    """

    def __init__(
        self,
        env: Environment,
        topology: Optional[Torus3D] = None,
        base_latency: float = 5e-6,
        hop_latency: float = 1e-7,
        software_overhead: float = 10e-6,
    ):
        self.env = env
        self.topology = topology
        self.base_latency = base_latency
        self.hop_latency = hop_latency
        self.software_overhead = software_overhead
        self.stats = TransferStats()
        self._hops_cache: Dict[int, int] = {}
        #: optional :class:`repro.faults.NetworkFaultState`; when set, every
        #: transfer consults it for drops/partitions/degradations
        self.faults = None

    # -- path metrics -------------------------------------------------------------

    def hops(self, src_id: int, dst_id: int) -> int:
        """Topology hop count between two node ids (1 for a flat network)."""
        if src_id == dst_id:
            return 0
        if self.topology is None:
            return 1
        key = (src_id * _PAIR_KEY + dst_id if src_id < dst_id
               else dst_id * _PAIR_KEY + src_id)
        cached = self._hops_cache.get(key)
        if cached is None:
            # Miss path only: Torus3D.hops rejects ids outside the torus.
            cached = self._hops_cache[key] = self.topology.hops(src_id, dst_id)
        return cached

    def latency(self, src: Node, dst: Node) -> float:
        """One-way message latency excluding serialization and queueing."""
        return (
            self.software_overhead
            + self.base_latency
            + self.hops(src.node_id, dst.node_id) * self.hop_latency
        )

    def ideal_transfer_time(self, src: Node, dst: Node, nbytes: float) -> float:
        """Contention-free duration of a transfer (for planning/scheduling)."""
        if src is dst:
            return self.software_overhead
        rate = min(src.nic.bandwidth, dst.nic.bandwidth)
        return self.latency(src, dst) + nbytes / rate

    # -- transfers ------------------------------------------------------------------

    def transfer(self, src: Node, dst: Node, nbytes: float):
        """Start a transfer; returns a process event that fires on completion."""
        return self.env.process(
            self._transfer(src, dst, nbytes),
            name=("xfer {}->{}", src.node_id, dst.node_id),
        )

    def _transfer(self, src: Node, dst: Node, nbytes: float):
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self._check_endpoints(src, dst)
        if self.faults is not None:
            self.faults.transit_check(src, dst, nbytes)
        if src is dst:
            # Intra-node move: software overhead only.
            yield self.env.timeout(self.software_overhead)
            return nbytes

        start = self.env.now
        send_req = src.nic.send_channel.request()
        recv_req = dst.nic.recv_channel.request()
        yield send_req & recv_req
        waited = self.env.now - start
        try:
            duration = self.ideal_transfer_time(src, dst, nbytes)
            if self.faults is not None:
                duration *= self.faults.delay_factor(src, dst)
            yield self.env.timeout(duration)
        finally:
            src.nic.send_channel.release(send_req)
            dst.nic.recv_channel.release(recv_req)
        # A crash during serialization loses the message at the receiver.
        self._check_endpoints(src, dst)
        src.nic.bytes_sent += nbytes
        dst.nic.bytes_received += nbytes
        self.stats.record(src.node_id, dst.node_id, nbytes, duration, waited)
        return nbytes

    @staticmethod
    def _check_endpoints(src: Node, dst: Node) -> None:
        if src.failed:
            raise TransferError(f"source node {src.node_id} is down")
        if dst.failed:
            raise TransferError(f"destination node {dst.node_id} is down")

    def rdma_get(self, reader: Node, target: Node, nbytes: float):
        """Reader-initiated pull (RDMA GET), as used by DataTap/DataStager.

        Costs one extra control-message latency for the request, then the
        data flows target → reader.
        """
        return self.env.process(
            self._rdma_get(reader, target, nbytes),
            name=("rdma {}->{}", target.node_id, reader.node_id),
        )

    def _rdma_get(self, reader: Node, target: Node, nbytes: float):
        yield self.env.timeout(self.latency(reader, target))  # GET request
        result = yield self.transfer(target, reader, nbytes)
        return result
