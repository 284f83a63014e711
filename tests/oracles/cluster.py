"""The process-per-transfer data plane, frozen for differential testing.

:func:`transfer` and :func:`rdma_get` are the generators
:class:`~repro.cluster.network.Network` ran as one
:class:`~repro.simkernel.Process` per transfer (and a second one per RDMA
GET) before :class:`~repro.cluster.network._Transfer` became the only
transfer walker.  Each takes the :class:`Network` as ``self``, so it can be
patched onto the class.  Running the same seeded transfer pattern through
both and comparing every outcome (completion times, errors, accounting;
the walker schedules fewer events) pins the callback chain to these
semantics: NIC contention, intra-node moves, a negative size, endpoint
crashes, partition/drop/degrade windows and swallowed fire-and-forget
failures.

Tests drive it: ``tests/test_cluster_network.py`` (the differential),
``tests/test_speed_gates.py`` (the reference side of its
``network_transfer`` gate) and :mod:`tests.oracles.evpath`, whose
process send moves its bytes through :func:`transfer`.  Nothing in
production calls it.
Do not modify this file when optimizing the transfer path — it is the
baseline.
"""

from __future__ import annotations


def transfer(self, src, dst, nbytes):
    """Start a transfer; returns a process event that fires on completion."""
    return self.env.process(
        _transfer(self, src, dst, nbytes),
        name=("xfer {}->{}", src.node_id, dst.node_id),
    )


def _transfer(self, src, dst, nbytes):
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


def rdma_get(self, reader, target, nbytes):
    """Reader-initiated pull (RDMA GET), as used by DataTap/DataStager.

    Costs one extra control-message latency for the request, then the
    data flows target → reader.
    """
    return self.env.process(
        _rdma_get(self, reader, target, nbytes),
        name=("rdma {}->{}", target.node_id, reader.node_id),
    )


def _rdma_get(self, reader, target, nbytes):
    yield self.env.timeout(self.latency(reader, target))  # GET request
    # the reference transfer, not the live one: the oracle is self-contained
    result = yield transfer(self, target, reader, nbytes)
    return result
