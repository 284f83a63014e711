"""The process-per-message transaction participant, frozen for differential
testing.

:class:`TxnParticipant` is the class :mod:`repro.transactions` ran before
its participant became a message walker: a ``_run`` loop process per
participant that spawns one ``_handle_vote_request`` or ``_handle_decision``
process per message and gathers child votes and acks with filtered
``endpoint.recv`` calls (a linear scan of the mailbox ``FilterStore``).
Patched in for :class:`repro.transactions.TxnParticipant` (for example over
``repro.transactions.d2t.TxnParticipant``, which ``build_group`` builds), it
pins the walker to these semantics by running the same scenarios through
both and comparing every outcome (transaction outcomes, decisions applied,
deliveries, sends, retries, raised errors and swallowed faults; the walker
schedules about half the events): commit, abort votes, crashes,
``crash_after_vote``, ``stop()`` and sends that exhaust their retries.

Tests drive it: ``tests/test_transactions.py`` (the differential) and
``tests/test_speed_gates.py`` (the reference side of its ``d2t_commit``
gate).  Nothing in production calls it.
Do not modify this file when optimizing the participant — it is the
baseline.  (It carries one mend the walker also has: ``stop()`` while the
``_run`` loop waits on a handler ends the loop quietly, instead of raising
the ``Interrupt`` out of the run.)
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.simkernel import Environment, Interrupt
from repro.cluster.node import Node
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.transactions.failures import FailureInjector


class TxnParticipant:
    """One process in a transaction group.

    Receives TXN_VOTE_REQUEST, relays it to its tree children, combines the
    children's aggregated votes with its own, and sends one aggregated
    TXN_VOTE to its parent.  Decisions (TXN_COMMIT / TXN_ABORT) flow down
    the same tree and acks aggregate back up.
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        node: Node,
        name: str,
        vote_fn: Optional[Callable[[int], bool]] = None,
        on_commit: Optional[Callable[[int], None]] = None,
        on_abort: Optional[Callable[[int], None]] = None,
        injector: Optional[FailureInjector] = None,
        vote_compute_seconds: float = 1e-4,
    ):
        self.env = env
        self.messenger = messenger
        self.node = node
        self.name = name
        self.vote_fn = vote_fn or (lambda txn_id: True)
        self.on_commit = on_commit
        self.on_abort = on_abort
        self.injector = injector
        self.vote_compute_seconds = vote_compute_seconds
        self.children: List["TxnParticipant"] = []
        self.endpoint = messenger.endpoint(node, name)
        self._proc = env.process(self._run(), name=f"txn:{name}")
        #: commit/abort decisions this participant applied
        self.committed: List[int] = []
        self.aborted: List[int] = []

    # -- tree wiring -------------------------------------------------------------------

    def add_child(self, child: "TxnParticipant") -> None:
        self.children.append(child)

    # -- protocol ----------------------------------------------------------------------

    def _run(self):
        while True:
            try:
                msg = yield self.endpoint.recv(
                    where=lambda m: m.mtype
                    in (MessageType.TXN_VOTE_REQUEST, MessageType.TXN_COMMIT,
                        MessageType.TXN_ABORT)
                )
            except Interrupt:
                return
            txn_id = msg.payload["txn_id"]
            fault = self.injector.check(self.name, txn_id) if self.injector else None
            if msg.mtype is MessageType.TXN_VOTE_REQUEST:
                if fault == "crash":
                    continue  # never answer; coordinator times out
                handler = self._handle_vote_request(msg, txn_id, fault)
            else:
                if fault == "crash_after_vote":
                    continue  # decision lost on this subtree's root
                handler = self._handle_decision(msg, txn_id)
            try:
                yield self.env.process(handler)
            except Interrupt:
                return

    def _handle_vote_request(self, msg: Message, txn_id: int, fault: Optional[str]):
        # Relay down the tree first, then gather aggregated child votes.
        for child in self.children:
            yield self.messenger.send(
                self.node,
                child.endpoint.name,
                Message(MessageType.TXN_VOTE_REQUEST, sender=self.name,
                        payload={"txn_id": txn_id}),
            )
        yield self.env.timeout(self.vote_compute_seconds)
        my_vote = bool(self.vote_fn(txn_id)) and fault != "abort"
        votes = [my_vote]
        for _ in self.children:
            reply = yield self.endpoint.recv(
                MessageType.TXN_VOTE,
                where=lambda m: m.payload["txn_id"] == txn_id,
            )
            votes.append(reply.payload["vote"])
        aggregated = all(votes)
        yield self.messenger.send(
            self.node,
            msg.sender,
            Message(MessageType.TXN_VOTE, sender=self.endpoint.name,
                    payload={"txn_id": txn_id, "vote": aggregated}),
        )

    def _handle_decision(self, msg: Message, txn_id: int):
        for child in self.children:
            yield self.messenger.send(
                self.node,
                child.endpoint.name,
                Message(msg.mtype, sender=self.name, payload={"txn_id": txn_id}),
            )
        if msg.mtype is MessageType.TXN_COMMIT:
            self.committed.append(txn_id)
            if self.on_commit is not None:
                self.on_commit(txn_id)
        else:
            self.aborted.append(txn_id)
            if self.on_abort is not None:
                self.on_abort(txn_id)
        # Gather child acks, then ack upward.
        for _ in self.children:
            yield self.endpoint.recv(
                MessageType.TXN_ACK,
                where=lambda m: m.payload["txn_id"] == txn_id,
            )
        yield self.messenger.send(
            self.node,
            msg.sender,
            Message(MessageType.TXN_ACK, sender=self.endpoint.name,
                    payload={"txn_id": txn_id}),
        )

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("stop")
