"""The process-per-message send, frozen for differential testing.

:func:`send` is the generator :class:`~repro.evpath.channel.Messenger` ran
as one :class:`~repro.simkernel.Process` per message before
:class:`~repro.evpath.channel._FastSend` became the only send path: account
the send, start a transfer process (:func:`tests.oracles.cluster.transfer`,
the process the live ``Network.transfer`` ran before it became a callback
chain), retry a :class:`FaultError` along the messenger's :class:`RetryPolicy`
ladder, then deliver into the destination mailbox.  Running the same
seeded send pattern through both and comparing every outcome (completion
times, errors, accounting, deliveries; the chain schedules fewer events)
pins the callback chain to these semantics — fault windows, retries,
rehosted endpoints and swallowed fire-and-forget failures included.

Tests drive it, among them ``tests/test_speed_gates.py`` (the
pre-fast-path side of its ``messenger_send`` gate); nothing in production
calls it.
Do not modify this file when optimizing the send path — it is the baseline.
"""

from __future__ import annotations

from tests.oracles import cluster as cluster_reference
from repro.simkernel.errors import FaultError
from repro.evpath.messages import validate_message
from repro.perf.registry import REGISTRY


def send(self, src_node, dest, message):
    """The generator send body; ``self`` is the :class:`Messenger`."""
    self.messages_sent += 1
    self.bytes_sent += message.size_bytes
    # The jitter key names this send uniquely and deterministically:
    # sender node, destination endpoint, and the send's sequence number.
    key = f"{src_node.node_id}:{dest.name}:{self.messages_sent}"
    delays = iter(self.retry.delays(key))
    while True:
        try:
            # dest.node is read per attempt: a rehosted endpoint's new
            # placement takes effect on the retry.
            yield cluster_reference.transfer(
                self.network, src_node, dest.node, message.size_bytes
            )
            break
        except FaultError:
            delay = next(delays, None)
            if delay is None:  # retries exhausted: surface the FaultError
                raise
            self.retries += 1
            REGISTRY.count("evpath.retries")
            yield self.env.timeout(delay)
    yield dest.deliver(message)
    return message


def send_process(messenger, src_node, to, message):
    """``Messenger.send`` as it was: validate, look up, start one process."""
    validate_message(message)
    dest = messenger.lookup(to)
    return messenger.env.process(
        send(messenger, src_node, dest, message), name=("send {}", message.mtype.value)
    )
