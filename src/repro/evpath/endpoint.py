"""Endpoints: addressable mailboxes pinned to cluster nodes."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.simkernel import Environment, FilterStore, processed_event
from repro.evpath.messages import Message, MessageType
from repro.cluster.node import Node


class Endpoint:
    """A named mailbox on a node.

    Processes receive with ``yield endpoint.recv()`` (optionally filtered by
    message type or predicate).  Delivery into the mailbox is done by a
    :class:`~repro.evpath.channel.Messenger` after the simulated network
    transfer completes.  A one-way message type with a :meth:`handle`
    handler skips the mailbox: the handler takes it at delivery.
    """

    def __init__(self, env: Environment, node: Node, name: str):
        self.env = env
        self.node = node
        self.name = name
        self._inbox = FilterStore(env, name=f"inbox:{name}")
        #: count of messages ever delivered (monitoring)
        self.delivered = 0
        #: one-way message handlers, by the message type's value
        self._handlers: Dict[str, Callable[[Message], None]] = {}

    def handle(self, fn: Optional[Callable[[Message], None]],
               *mtypes: MessageType) -> None:
        """Hand every message of the types ``mtypes`` to ``fn`` when it is
        delivered, instead of putting it into the mailbox.

        ``fn=None`` removes the types' handler: their later messages go to
        the mailbox again.
        """
        # Keyed by each type's value string, which hashes in C; a
        # MessageType member hashes through Enum's Python __hash__, and
        # deliver looks up every message it is given.
        handlers = self._handlers
        for mtype in mtypes:
            if fn is None:
                handlers.pop(mtype._value_, None)
            else:
                handlers[mtype._value_] = fn

    def deliver(self, message: Message):
        """Hand a message to its type's handler, or put it into the
        mailbox (called by the messenger).

        Returns the put, or an already processed event when a handler took
        the message: nothing is scheduled for it.
        """
        self.delivered += 1
        handler = self._handlers.get(message.mtype._value_)
        if handler is None:
            return self._inbox.put(message)
        handler(message)
        return processed_event(self.env)

    def recv(
        self,
        mtype: Optional[MessageType] = None,
        where: Optional[Callable[[Message], bool]] = None,
    ):
        """Event that fires with the next matching message.

        Parameters
        ----------
        mtype:
            Restrict to one message type.
        where:
            Additional predicate over the message.
        """
        if mtype is None and where is None:
            return self._inbox.get()

        def matches(msg: Message) -> bool:
            if mtype is not None and msg.mtype is not mtype:
                return False
            if where is not None and not where(msg):
                return False
            return True

        return self._inbox.get(matches)

    def recv_reply(self, to: Message):
        """Event for the reply correlated with message ``to``."""
        return self._inbox.get(lambda m: m.reply_to == to.seq)

    @property
    def pending(self) -> int:
        return self._inbox.size

    def __repr__(self) -> str:
        return f"<Endpoint {self.name!r} node={self.node.node_id} pending={self.pending}>"
