"""Shared pieces of the transfer-walker tests.

``tests/test_cluster_network.py`` (transfers and RDMA GETs) and
``tests/test_evpath.py`` (sends) run one scenario through the live
callback chain and through the process generators in :mod:`tests.oracles`,
and compare every outcome: completion times, errors, accounting.  The live
walkers schedule only events that carry time, so the two schedules differ;
:func:`scheduled_kinds` names what the live side schedules.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock


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


@contextmanager
def scheduled_kinds(env):
    """Within the block, note every event ``env`` places on its heap and
    every walker's ``result``; on exit, fill the yielded list with the kind
    of each scheduled event, in order: ``"Request"``, ``"Timeout"``,
    ``"StorePut"`` (a mailbox put), ``"result"``, or ``"step"`` for
    anything else, such as a bare step event."""
    from repro.cluster.network import _RdmaGet, _Transfer

    scheduled, results, kinds = [], [], []
    schedule, schedule_at = env.schedule, env.schedule_at

    def spy(event, *args, **kwargs):
        scheduled.append(event)
        return schedule(event, *args, **kwargs)

    def spy_at(event, *args, **kwargs):
        scheduled.append(event)
        return schedule_at(event, *args, **kwargs)

    def noting(init):
        def note_result(self, *args):
            init(self, *args)
            results.append(self.result)
        return note_result

    env.schedule, env.schedule_at = spy, spy_at
    with mock.patch.object(_Transfer, "__init__", noting(_Transfer.__init__)), \
            mock.patch.object(_RdmaGet, "__init__", noting(_RdmaGet.__init__)):
        yield kinds
    env.schedule, env.schedule_at = schedule, schedule_at
    for event in scheduled:
        name = type(event).__name__
        if name in ("Request", "Timeout", "StorePut"):
            kinds.append(name)
        elif any(event is result for result in results):
            kinds.append("result")
        else:
            kinds.append("step")
