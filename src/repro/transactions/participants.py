"""Transaction participants arranged in k-ary aggregation trees."""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.simkernel import Environment, processed_event
from repro.simkernel.errors import SimulationError
from repro.cluster.node import Node
from repro.evpath.channel import Messenger
from repro.evpath.endpoint import Endpoint
from repro.evpath.messages import Message, MessageType

from repro.transactions.failures import FailureInjector

_VOTE_REQUEST = MessageType.TXN_VOTE_REQUEST
_COMMIT = MessageType.TXN_COMMIT
_ABORT = MessageType.TXN_ABORT
_VOTE = MessageType.TXN_VOTE
_ACK = MessageType.TXN_ACK


class _Mailbox(Endpoint):
    """A participant's endpoint.  :meth:`deliver` hands the message to the
    participant instead of storing it, and returns an already processed
    event, so nothing is scheduled for the put and no other endpoint's
    delivery changes."""

    arrive: Callable[[Message], None]

    def deliver(self, message: Message):
        self.delivered += 1
        self.arrive(message)
        return processed_event(self.env)


class _Round:
    """One message a participant handles: a vote request or a decision.

    It relays the message to the children one send at a time, gathers one
    reply per child (votes into ``ok``, or acks), and sends one aggregated
    reply up.  ``replies`` holds the children's replies that arrived before
    the round asked for them; ``waiting`` is set while the round is asking
    and none has arrived.
    """

    __slots__ = ("p", "msg", "txn_id", "fault", "relayed", "want", "ok",
                 "replies", "waiting")

    def __init__(self, p: "TxnParticipant", msg: Message, txn_id: int,
                 fault: Optional[str]):
        self.p = p
        self.msg = msg
        self.txn_id = txn_id
        self.fault = fault
        self.relayed = 0
        self.want = len(p.children)
        self.ok = True
        self.replies = deque()
        self.waiting = False

    def _relay(self, event) -> None:
        if event is not None and not event._ok:
            return  # a send spent its retries: see _sent
        p = self.p
        if self.relayed < len(p.children):
            child = p.children[self.relayed]
            self.relayed += 1
            p.messenger.send(
                p.node,
                child.endpoint.name,
                Message(self.msg.mtype, sender=p.name, payload={"txn_id": self.txn_id}),
            ).callbacks.append(self._relay)
        elif self.msg.mtype is _VOTE_REQUEST:
            p.env.timeout(p.vote_compute_seconds).callbacks.append(self._vote)
        else:
            if self.msg.mtype is _COMMIT:
                p.committed.append(self.txn_id)
                if p.on_commit is not None:
                    p.on_commit(self.txn_id)
            else:
                p.aborted.append(self.txn_id)
                if p.on_abort is not None:
                    p.on_abort(self.txn_id)
            self._gather()

    def _vote(self, _event) -> None:
        self.ok = bool(self.p.vote_fn(self.txn_id)) and self.fault != "abort"
        self._gather()

    def _gather(self) -> None:
        """Take the buffered child replies, then send the aggregate up or
        wait for the next reply."""
        p = self.p
        while self.want and self.replies:
            self._got(self.replies.popleft())
        if not self.want:
            if self.msg.mtype is _VOTE_REQUEST:
                reply = Message(_VOTE, sender=p.endpoint.name,
                                payload={"txn_id": self.txn_id, "vote": self.ok})
            else:
                reply = Message(_ACK, sender=p.endpoint.name,
                                payload={"txn_id": self.txn_id})
            p.messenger.send(p.node, self.msg.sender, reply).callbacks.append(self._sent)
        else:
            self.waiting = True
            if p._busy is self and p._requests:
                # An open gather does not hold up another transaction.
                p._busy = None
                p._ask()

    def offer(self, reply: Message) -> None:
        """A child's reply arrived for this round."""
        if self.waiting:
            self.waiting = False
            self._got(reply)
            self._gather()
        else:
            self.replies.append(reply)

    def _got(self, reply: Message) -> None:
        if self.msg.mtype is _VOTE_REQUEST and not reply.payload["vote"]:
            self.ok = False
        self.want -= 1

    def _sent(self, event) -> None:
        if not event._ok:
            # A send spent its retries: the round ends, and so does the
            # request loop if it waits on this round (it stays busy with
            # it).  Nothing watches a round, so the failed send stays
            # undefused: a swallowed fault, or raised out of the run if it
            # is not a FaultError.
            return
        p = self.p
        if p._slots.get(self.txn_id) is self:
            del p._slots[self.txn_id]
        if p._busy is self:
            # The round the request loop waited for is done: serve the next.
            p._busy = None
            p._ask()


class TxnParticipant:
    """One member of a transaction group, walked by its messages.

    Receives TXN_VOTE_REQUEST, relays it to its tree children, combines the
    children's aggregated votes with its own, and sends one aggregated
    TXN_VOTE to its parent.  Decisions (TXN_COMMIT / TXN_ABORT) flow down
    the same tree and acks aggregate back up.

    There is no process per participant or per message: delivery to the
    participant's endpoint runs a chain of callbacks, a :class:`_Round` per
    handled message, outcome-identical to the process-per-message
    participant kept in :mod:`tests.oracles.transactions` (a ``_run`` loop
    spawning one handler process per message).  It schedules only events
    that carry time: its sends and the ``vote_compute_seconds``
    ``Timeout``.  A delivered request is served in the delivery's
    callback, a child's reply is gathered there, and a round's reply send
    completing serves the next buffered request.

    A message the walker is not waiting for is buffered in arrival order:
    requests in ``_requests``, child replies in their transaction's round
    (``_slots``, keyed by ``txn_id``).  Two departures from the process
    path.  A round whose gather is open does not block the next request: a
    child that never answers (a ``"crash"`` or ``"crash_after_vote"``
    fault) leaves that gather open forever, and the process path then
    never served another transaction; the walker serves it.  And a request
    delivered before :meth:`stop` in the same instant is served, where the
    process path's interrupt lost it in the receive that had not yet fired.
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
        self.endpoint = messenger.endpoint(node, name, cls=_Mailbox)
        self.endpoint.arrive = self._arrive
        #: commit/abort decisions this participant applied
        self.committed: List[int] = []
        self.aborted: List[int] = []
        #: requests not yet served, in arrival order
        self._requests = deque()
        #: the open round of each transaction, by txn_id
        self._slots = {}
        #: waiting for the next request (the process path's pending get)
        self._armed = True
        #: the round the next request waits for, if any
        self._busy: Optional[_Round] = None

    # -- tree wiring -------------------------------------------------------------------

    def add_child(self, child: "TxnParticipant") -> None:
        self.children.append(child)

    # -- protocol ----------------------------------------------------------------------

    def _arrive(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is _VOTE or mtype is _ACK:
            round_ = self._slots.get(msg.payload["txn_id"])
            if round_ is not None:
                round_.offer(msg)
        elif mtype is _VOTE_REQUEST or mtype is _COMMIT or mtype is _ABORT:
            busy = self._busy
            if self._armed or (busy is not None and busy.waiting):
                self._armed = False
                self._busy = None
                self._serve(msg)
            else:
                self._requests.append(msg)

    def _ask(self) -> None:
        """Serve the oldest buffered request, or wait for the next one."""
        if self._requests:
            self._serve(self._requests.popleft())
        else:
            self._armed = True

    def _serve(self, msg: Message) -> None:
        txn_id = msg.payload["txn_id"]
        fault = self.injector.check(self.name, txn_id) if self.injector else None
        if msg.mtype is _VOTE_REQUEST:
            if fault == "crash":
                return self._ask()  # never answer; coordinator times out
        elif fault == "crash_after_vote":
            return self._ask()  # decision lost on this subtree's root
        round_ = self._slots[txn_id] = self._busy = _Round(self, msg, txn_id, fault)
        round_._relay(None)

    def stop(self) -> None:
        """Stop serving requests, at the call.

        Rounds under way still finish; every request from now on is
        buffered and never served.
        """
        self._armed = False
        self._busy = None


class TxnGroup:
    """A k-ary tree of participants with a single root.

    The coordinator talks only to the root; vote aggregation and decision
    fan-out stay inside the group, giving the O(log n) rounds that make the
    protocol scale (the Figure 6 result).
    """

    def __init__(self, name: str, participants: List[TxnParticipant], fanout: int = 8):
        if not participants:
            raise SimulationError(f"group {name!r} needs at least one participant")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.name = name
        self.participants = participants
        self.fanout = fanout
        # Heap-style k-ary tree over the participant list.
        for i, participant in enumerate(participants):
            if i == 0:
                continue
            parent = participants[(i - 1) // fanout]
            parent.add_child(participant)

    @property
    def root(self) -> TxnParticipant:
        return self.participants[0]

    def depth(self) -> int:
        depth, span = 0, 1
        total = len(self.participants)
        covered = 1
        while covered < total:
            span *= self.fanout
            covered += span
            depth += 1
        return depth

    def stop(self) -> None:
        for participant in self.participants:
            participant.stop()
