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

from repro.simkernel import Environment, Event, schedule_step
from repro.simkernel.errors import FaultError
from repro.simkernel.events import NORMAL, URGENT
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

    def transfer(self, src: Node, dst: Node, nbytes: float) -> Event:
        """Start a transfer; returns an event that fires with ``nbytes`` on
        completion, or fails with the error that lost it."""
        return _Transfer(self, src, dst, nbytes).result

    @staticmethod
    def _check_endpoints(src: Node, dst: Node) -> None:
        if src.failed:
            raise TransferError(f"source node {src.node_id} is down")
        if dst.failed:
            raise TransferError(f"destination node {dst.node_id} is down")

    def rdma_get(self, reader: Node, target: Node, nbytes: float) -> Event:
        """Reader-initiated pull (RDMA GET), as used by DataTap/DataStager.

        Costs one extra control-message latency for the request, then the
        data flows target → reader.
        """
        return _RdmaGet(self, reader, target, nbytes).result


class _Transfer:
    """The transfer walker: one transfer moved through the network as callbacks.

    A transfer that queues for a NIC channel walks the *identical* event
    sequence a process per transfer did (:mod:`tests.oracles.cluster` keeps
    that process as the differential oracle), with plain callbacks and
    step events (:func:`~repro.simkernel.schedule_step`):

    ==  ==========================  =====================================
    #   process path                callback chain
    ==  ==========================  =====================================
    2   Initialize(xfer proc)       step event -> _launch
    3   send-channel Request        same (real Request)
    4   recv-channel Request        same (real Request)
    5   AllOf condition fires       step event -> _serialize
    6   serialization Timeout       same (real Timeout) -> _wire_done
    7   xfer process completes      ``result`` succeeds (_completed)
    F   xfer process fails          ``result`` fails (_failed)
    ==  ==========================  =====================================

    Every row schedules at the same time and priority, in the same global
    ``schedule()`` order, so under any tie-breaker every downstream schedule
    is byte-identical.  A transfer that finds both channels free walks 2,
    6, 7: for a FIFO resource a free slot means an empty queue, so rows 3-5
    would grant at the launch instant and carry no information.  It holds
    each slot with itself as the token and is outcome-identical (same
    completion time, accounting and errors), not schedule-identical: its
    row 6 sits earlier among the events scheduled at that instant, and
    every later event id is three lower.  An intra-node transfer walks 2,
    an overhead ``Timeout``, then 7.  Row F comes from row 2 (negative size, dead
    endpoint, partition, drop) or row 6 (an endpoint crashed mid-wire); an
    unwatched :class:`FaultError` lands in ``env.swallowed_faults`` as before.
    Subclasses put rows in front (override :meth:`_begin`) and replace rows
    7 and F (:meth:`_completed`, :meth:`_failed`), as
    :class:`~repro.evpath.channel._FastSend` does: one object per message.
    """

    __slots__ = (
        "network", "src", "dst", "nbytes", "result",
        "_granted", "_send_req", "_recv_req", "_start", "_duration",
    )

    def __init__(self, network: Network, src: Node, dst: Node, nbytes: float):
        self.network = network
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        #: fires with ``nbytes`` on completion, or fails with the error
        self.result = Event(network.env)
        schedule_step(network.env, self._begin, URGENT)

    def _launch(self, _event) -> None:
        # [2] the transfer process body up to its first yield.
        src, dst, nbytes = self.src, self.dst, self.nbytes
        network = self.network
        try:
            if nbytes < 0:
                raise ValueError(f"negative transfer size {nbytes}")
            network._check_endpoints(src, dst)
            if network.faults is not None:
                network.faults.transit_check(src, dst, nbytes)
        except (ValueError, FaultError) as error:
            self._failed(error)
            return
        env = network.env
        if src is dst:
            # Intra-node move: software overhead only.
            env.timeout(network.software_overhead).callbacks.append(self._completed)
            return
        self._start = env.now
        send_channel = src.nic.send_channel
        recv_channel = dst.nic.recv_channel
        if send_channel.try_hold(self):
            if recv_channel.try_hold(self):
                # Both channels had a free slot: hold each with this walker
                # as its token, with no Request and no event, and start the
                # wire time now.
                self._send_req = self._recv_req = self
                self._serialize(None)
                return
            # Give the send slot back: its queue was empty, so this grants
            # nothing, and the Requests below queue as the process did.
            send_channel.release(self)
        self._granted = 0
        send_req = self._send_req = send_channel.request()
        recv_req = self._recv_req = recv_channel.request()
        send_req.callbacks.append(self._on_grant)
        recv_req.callbacks.append(self._on_grant)

    #: the first row; a subclass may walk rows of its own before [2]
    _begin = _launch

    def _on_grant(self, _event) -> None:
        # [3]/[4] pop; when both channels are held, [5] fires the condition.
        self._granted += 1
        if self._granted == 2:
            schedule_step(self.network.env, self._serialize, NORMAL)

    def _serialize(self, _event) -> None:
        # [5] pop, or inline from [2] when both channels were free: start
        # the wire-time clock.
        network = self.network
        env = network.env
        self._start = env.now - self._start  # now holds the waited time
        duration = network.ideal_transfer_time(self.src, self.dst, self.nbytes)
        if network.faults is not None:
            duration *= network.faults.delay_factor(self.src, self.dst)
        self._duration = duration
        env.timeout(duration).callbacks.append(self._wire_done)

    def _wire_done(self, _event) -> None:
        # [6] pop: release channels (may grant queued requests, exactly as
        # the process path's finally block), account, complete.
        src, dst, nbytes = self.src, self.dst, self.nbytes
        network = self.network
        src.nic.send_channel.release(self._send_req)
        dst.nic.recv_channel.release(self._recv_req)
        try:
            # A crash during serialization loses the message at the receiver.
            network._check_endpoints(src, dst)
        except FaultError as error:
            self._failed(error)
            return
        src.nic.bytes_sent += nbytes
        dst.nic.bytes_received += nbytes
        network.stats.record(src.node_id, dst.node_id, nbytes, self._duration, self._start)
        self._completed(None)

    def _completed(self, _event) -> None:
        # [7] the transfer process returning ``nbytes``.
        self.result.succeed(self.nbytes)

    def _failed(self, error: Exception) -> None:
        # [F] the transfer process raising ``error``.
        self.result.fail(error)


class _RdmaGet:
    """An RDMA GET as callbacks, in the nested processes' event order: a
    step event (the GET process's ``Initialize``), the request-latency
    ``Timeout``, a transfer target → reader, and its outcome forwarded."""

    __slots__ = ("network", "reader", "target", "nbytes", "result")

    def __init__(self, network: Network, reader: Node, target: Node, nbytes: float):
        self.network = network
        self.reader = reader
        self.target = target
        self.nbytes = nbytes
        self.result = Event(network.env)
        schedule_step(network.env, self._request, URGENT)

    def _request(self, _event) -> None:
        latency = self.network.latency(self.reader, self.target)
        self.network.env.timeout(latency).callbacks.append(self._get)

    def _get(self, _event) -> None:
        xfer = self.network.transfer(self.target, self.reader, self.nbytes)
        xfer.callbacks.append(self._forward)

    def _forward(self, event) -> None:
        # The rdma process returning the transfer's value, or raising its
        # error (which it caught, hence defused).
        if event._ok:
            self.result.succeed(event._value)
        else:
            event.defuse()
            self.result.fail(event._value)
