"""Shared pieces of the transfer-walker differentials.

``tests/test_cluster_network.py`` (transfers and RDMA GETs) and
``tests/test_evpath.py`` (sends) run one scenario through the live
callback chain and through the process generators in :mod:`tests.oracles`.
A transfer that queues for a NIC channel must schedule the identical
events; one that finds both channels free skips the two channel Requests
and the grant step, so it must be outcome-identical and schedule exactly
three fewer events.
"""

from __future__ import annotations


def hold_every_slot(env, machine, until):
    """Take every NIC channel slot of ``machine`` now and give it back at
    ``until``: each cross-node transfer launched before then queues for
    both of its channels."""
    held = [channel.request()
            for node in machine.nodes
            for channel in (node.nic.send_channel, node.nic.recv_channel)
            for _ in range(channel.capacity)]

    def holder(env):
        yield env.timeout(until)
        for request in held:
            request.cancel()

    env.process(holder(env))


def free_slot_spy(grants):
    """A ``Resource._do_request`` stand-in that notes in ``grants`` whether
    each request found a free slot, then requests as before."""
    from repro.simkernel import Resource

    request_slot = Resource._do_request

    def do_request(resource, request):
        grants.append(len(resource.users) < resource.capacity)
        request_slot(resource, request)

    return do_request


def tally_nic_requests(grants):
    """``(requests, uncontended)``: transfer channel requests come in
    (send, recv) pairs; a pair whose two requests both found a free slot is
    a transfer that never queued."""
    assert len(grants) % 2 == 0
    pairs = list(zip(grants[::2], grants[1::2]))
    return len(pairs), sum(send and recv for send, recv in pairs)


def assert_outcome_identical(fast, slow):
    """The outcome differential for a transfer that finds both NIC channels
    free: the live walker takes both slots with no Request and no grant
    step, so it schedules exactly three fewer events per such transfer
    than the process path, and everything else it records is identical."""
    assert slow["uncontended"] > 0  # the scenario reaches the free-slot branch
    assert fast["uncontended"] == 0  # ...which never makes a Request
    assert fast["requests"] == slow["requests"] - slow["uncontended"]
    assert len(fast["log"]) == len(slow["log"]) - 3 * slow["uncontended"]
    skip = ("log", "requests", "uncontended")
    assert ({k: v for k, v in fast.items() if k not in skip}
            == {k: v for k, v in slow.items() if k not in skip})
