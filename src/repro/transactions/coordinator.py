"""The D2T coordinator: two-phase commit across group roots."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.simkernel import Environment
from repro.cluster.node import Node
from repro.controlplane import ControlPlaneEngine, protocols
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.transactions.participants import TxnGroup

@dataclass
class TxnOutcome:
    """Result of one transaction."""

    txn_id: int
    committed: bool
    started_at: float
    decided_at: float
    finished_at: float
    timed_out_groups: List[str] = field(default_factory=list)
    acks_complete: bool = True
    #: aggregated votes actually collected (presumed-abort audit trail: a
    #: commit requires every group's explicit yes — see repro.dst invariants)
    votes: List[bool] = field(default_factory=list)

    @property
    def vote_phase(self) -> float:
        return self.decided_at - self.started_at

    @property
    def total(self) -> float:
        return self.finished_at - self.started_at


class D2TCoordinator:
    """Runs two-phase commit over a set of :class:`TxnGroup` roots.

    Presumed abort: a group that does not deliver its aggregated vote within
    ``vote_timeout`` is treated as voting abort.  The decision phase waits
    up to ``ack_timeout`` for aggregated acks; missing acks do not change
    the decision (participants recover via their logs in real D2T), but are
    reported in the outcome.
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        node: Node,
        name: str = "txn-coord",
        vote_timeout: float = 5.0,
        ack_timeout: float = 5.0,
        engine: Optional[ControlPlaneEngine] = None,
    ):
        self.env = env
        self.messenger = messenger
        self.node = node
        self.name = name
        self.vote_timeout = vote_timeout
        self.ack_timeout = ack_timeout
        self.endpoint = messenger.endpoint(node, name)
        self.engine = engine if engine is not None else ControlPlaneEngine(env)
        self.outcomes: List[TxnOutcome] = []
        #: transaction ids, numbered from 1 per coordinator
        self._txn_ids = itertools.count(1)

    def run(self, groups: List[TxnGroup]):
        """Process: one transaction across ``groups``; value is TxnOutcome."""
        txn_id = next(self._txn_ids)
        return self.engine.execute(
            protocols.D2T_COMMIT,
            subject=f"txn-{txn_id}",
            data={
                "coord": self,
                "groups": groups,
                "txn_id": txn_id,
                "started": self.env.now,
                "votes": [],
                "pending": {g.root.endpoint.name: g.name for g in groups},
            },
        )

    # D2T_COMMIT round bodies ----------------------------------------------------------

    def _cp_vote_request(self, ctx):
        """Phase 1: vote requests to every group root."""
        for group in ctx["groups"]:
            yield self.messenger.send(
                self.node,
                group.root.endpoint.name,
                Message(MessageType.TXN_VOTE_REQUEST, sender=self.name,
                        payload={"txn_id": ctx["txn_id"]}),
            )

    def _cp_collect_votes(self, ctx):
        """Gather aggregated votes; the engine's round timeout is the
        presumed-abort deadline — groups still pending when it interrupts
        this collector are treated as voting abort."""
        txn_id = ctx["txn_id"]
        pending = ctx["pending"]
        while pending:
            reply = yield self.endpoint.recv(
                MessageType.TXN_VOTE,
                where=lambda m: m.payload["txn_id"] == txn_id,
            )
            pending.pop(reply.sender, None)
            ctx["votes"].append(reply.payload["vote"])

    def _cp_decide(self, ctx):
        """Phase 2: decide and broadcast to the reachable roots."""
        votes = ctx["votes"]
        timed_out = list(ctx["pending"].values())
        committed = bool(votes) and all(votes) and not timed_out
        ctx["timed_out"] = timed_out
        ctx["committed"] = committed
        ctx["decided"] = self.env.now
        decision = MessageType.TXN_COMMIT if committed else MessageType.TXN_ABORT
        reachable = [g for g in ctx["groups"] if g.name not in timed_out]
        ctx["reachable"] = reachable
        ctx["remaining"] = len(reachable)
        for group in reachable:
            yield self.messenger.send(
                self.node,
                group.root.endpoint.name,
                Message(decision, sender=self.name,
                        payload={"txn_id": ctx["txn_id"]}),
            )

    def _cp_collect_acks(self, ctx):
        """Aggregated acks; missing acks (deadline interrupt) do not change
        the decision, only the outcome's ``acks_complete`` flag."""
        txn_id = ctx["txn_id"]
        while ctx["remaining"]:
            yield self.endpoint.recv(
                MessageType.TXN_ACK,
                where=lambda m: m.payload["txn_id"] == txn_id,
            )
            ctx["remaining"] -= 1

    def _cp_finalize(self, ctx) -> None:
        outcome = TxnOutcome(
            txn_id=ctx["txn_id"],
            committed=ctx["committed"],
            started_at=ctx["started"],
            decided_at=ctx["decided"],
            finished_at=self.env.now,
            timed_out_groups=ctx["timed_out"],
            acks_complete=ctx["remaining"] == 0,
            votes=list(ctx["votes"]),
        )
        self.outcomes.append(outcome)
        ctx.result = outcome
