"""Transaction participants arranged in k-ary aggregation trees."""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.simkernel import Environment, Event, schedule_step
from repro.simkernel.errors import SimulationError
from repro.simkernel.events import URGENT
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


def _on(env: Environment, fn) -> Event:
    """A new event that runs ``fn`` when processed.  The walker fires it
    with ``succeed``/``fail`` (a ``NORMAL`` event now) as its stand-in for
    a mailbox put or get firing or a process ending; a failed event that
    ``fn`` does not defuse lands in ``env.swallowed_faults``."""
    ev = Event(env)
    ev.callbacks.append(fn)
    return ev


class _Mailbox(Endpoint):
    """A participant's endpoint.  :meth:`deliver` schedules the succeeded
    put event a send waits on, then hands the message to the participant
    instead of storing it, so no other endpoint's delivery changes."""

    arrive: Callable[[Message], None]

    def deliver(self, message: Message):
        self.delivered += 1
        put = Event(self.env).succeed()
        self.arrive(message)
        return put


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

    def begin(self, _event) -> None:
        # The handler process's Initialize: relay to the first child.
        self._relay(None)

    def _relay(self, event) -> None:
        if event is not None and not event._ok:
            return self._fail(event)
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
        """Ask for the next child reply, or send the aggregate up."""
        p = self.p
        if not self.want:
            if self.msg.mtype is _VOTE_REQUEST:
                reply = Message(_VOTE, sender=p.endpoint.name,
                                payload={"txn_id": self.txn_id, "vote": self.ok})
            else:
                reply = Message(_ACK, sender=p.endpoint.name,
                                payload={"txn_id": self.txn_id})
            p.messenger.send(p.node, self.msg.sender, reply).callbacks.append(self._sent)
        elif self.replies:
            _on(p.env, self._got).succeed(self.replies.popleft())
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
            _on(self.p.env, self._got).succeed(reply)
        else:
            self.replies.append(reply)

    def _got(self, event) -> None:
        if self.msg.mtype is _VOTE_REQUEST and not event._value.payload["vote"]:
            self.ok = False
        self.want -= 1
        self._gather()

    def _sent(self, event) -> None:
        if not event._ok:
            return self._fail(event)
        p = self.p
        if p._slots.get(self.txn_id) is self:
            del p._slots[self.txn_id]
        # The handler process completing.
        if p._busy is self:
            p._wake = _on(p.env, p._resume).succeed()
        else:
            Event(p.env).succeed()

    def _fail(self, event) -> None:
        # A send spent its retries: the handler process fails with the
        # error, and the participant with it if it was waiting on this round.
        event.defuse()
        p = self.p
        if p._busy is self:
            p._wake = _on(p.env, p._die).fail(event._value)
        else:
            Event(p.env).fail(event._value)


class TxnParticipant:
    """One member of a transaction group, walked by its messages.

    Receives TXN_VOTE_REQUEST, relays it to its tree children, combines the
    children's aggregated votes with its own, and sends one aggregated
    TXN_VOTE to its parent.  Decisions (TXN_COMMIT / TXN_ABORT) flow down
    the same tree and acks aggregate back up.

    There is no process per participant or per message: delivery to the
    participant's endpoint runs a chain of callbacks, a :class:`_Round` per
    handled message, that walks the exact ``schedule()`` sequence of the
    process-per-message participant kept in :mod:`tests.oracles.transactions`
    (a ``_run`` loop spawning one handler process per message):

    ====================================  ===================================
    process path                          callback chain
    ====================================  ===================================
    ``_run``'s ``Initialize``             ``URGENT`` step -> :meth:`_ask`
    mailbox ``StorePut``                  same (a succeeded put event)
    mailbox get fires with a message      ``NORMAL`` event carrying it
    handler process ``Initialize``        ``URGENT`` step -> ``_Round.begin``
    child sends, compute ``Timeout``,     same (real sends and ``Timeout``)
    reply up
    handler process completes             ``NORMAL`` event -> :meth:`_resume`
    handler fails, then ``_run``          two failed ``NORMAL`` events; the
                                          second is a swallowed fault
    ``stop()``'s interrupt, ``_run``      ``URGENT`` step -> :meth:`_halt`,
    returns                               then a ``NORMAL`` event
    ====================================  ===================================

    A message the walker is not waiting for is buffered in arrival order:
    requests in ``_requests``, child replies in their transaction's round
    (``_slots``, keyed by ``txn_id``).  The one departure from the process
    path: a round whose gather is open does not block the next request.
    A child that never answers (a ``"crash"`` or ``"crash_after_vote"``
    fault) leaves that gather open forever, and the process path then never
    served another transaction; the walker serves it.
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
        self._armed = False
        #: the round the next request waits for, if any
        self._busy: Optional[_Round] = None
        #: the scheduled event that resumes the request loop, if any
        self._wake: Optional[Event] = None
        #: False once stopped or dead
        self._live = True
        schedule_step(env, self._ask, URGENT)

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
                self._wake = _on(self.env, self._serve).succeed(msg)
            else:
                self._requests.append(msg)

    def _ask(self, _event=None) -> None:
        """Serve the oldest buffered request, or wait for the next one."""
        if self._requests:
            self._wake = _on(self.env, self._serve).succeed(self._requests.popleft())
        else:
            self._armed = True

    def _resume(self, _event) -> None:
        # The round this loop waited for completed.
        self._busy = self._wake = None
        self._ask()

    def _serve(self, event) -> None:
        self._wake = None
        if not self._live:
            return  # consumed by a stopped loop's pending receive
        msg = event._value
        txn_id = msg.payload["txn_id"]
        fault = self.injector.check(self.name, txn_id) if self.injector else None
        if msg.mtype is _VOTE_REQUEST:
            if fault == "crash":
                return self._ask()  # never answer; coordinator times out
        elif fault == "crash_after_vote":
            return self._ask()  # decision lost on this subtree's root
        round_ = self._slots[txn_id] = self._busy = _Round(self, msg, txn_id, fault)
        schedule_step(self.env, round_.begin, URGENT)

    def _die(self, event) -> None:
        # The request loop fails with its round's error: nothing waits on it.
        event.defuse()
        self._live = False
        self._busy = self._wake = None
        Event(self.env).fail(event._value)

    def stop(self) -> None:
        """Stop serving requests, as an interrupt at the current instant.

        Rounds under way still finish.  The request loop ends quietly,
        whether it waits on a receive or on a round.
        """
        if self._live:
            self._live = False
            schedule_step(self.env, self._halt, URGENT)

    def _halt(self, _event) -> None:
        # The interrupt: what the request loop was waiting on is abandoned
        # (a pending receive stays armed and swallows one request), and the
        # loop ends.
        wake = self._wake
        if wake is not None:
            wake.callbacks.clear()
            self.env.cancel(wake)
        self._busy = self._wake = None
        Event(self.env).succeed()


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
