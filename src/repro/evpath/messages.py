"""Typed control and monitoring messages, and their payload schemas.

The container control protocol (Section III-D, Figure 3) consists of rounds
of small typed messages.  Every message records its type, sender, a payload,
and a monotonically increasing sequence number per sender so tests can assert
ordering and the experiments can count protocol rounds.

Control messages also carry *declared* payloads: :data:`SCHEMAS` maps each
protocol message type to a :class:`MessageSchema` naming its required and
optional fields.  The messenger validates payloads at send time, so a
malformed control message fails loudly at the sender (with the offending
field named) instead of as a ``KeyError`` deep inside the receiving
protocol handler.  Ack/query/report types whose payloads are intentionally
open-ended are registered ``freeform``.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.simkernel.errors import SimulationError


class MessageType(Enum):
    """Union of the message kinds used by the container framework."""

    # Global manager -> container manager
    INCREASE_REQUEST = "increase_request"
    DECREASE_REQUEST = "decrease_request"
    OFFLINE_REQUEST = "offline_request"
    # Container manager -> component executables
    SPAWN_REPLICA = "spawn_replica"
    RETIRE_REPLICA = "retire_replica"
    PAUSE_WRITERS = "pause_writers"
    RESUME_WRITERS = "resume_writers"
    SWITCH_OUTPUT_METHOD = "switch_output_method"
    SET_STRIDE = "set_stride"
    SET_HASHING = "set_hashing"
    # Upward notifications / acks
    ACK = "ack"
    NACK = "nack"
    REPLICA_READY = "replica_ready"
    WRITERS_PAUSED = "writers_paused"
    RESIZE_COMPLETE = "resize_complete"
    OFFLINE_COMPLETE = "offline_complete"
    # Metadata exchange among replicas during a resize
    ENDPOINT_INFO = "endpoint_info"
    ENDPOINT_INFO_ACK = "endpoint_info_ack"
    # Monitoring
    METRIC_REPORT = "metric_report"
    METRIC_AGGREGATE = "metric_aggregate"
    # Failure detection and recovery (repro.faults)
    HEARTBEAT = "heartbeat"
    REPLICA_SUSPECT = "replica_suspect"
    REPLACE_REQUEST = "replace_request"
    REPLACE_COMPLETE = "replace_complete"
    # Queries between managers
    SPEEDUP_QUERY = "speedup_query"
    SPEEDUP_REPLY = "speedup_reply"
    # Transactions (D2T)
    TXN_BEGIN = "txn_begin"
    TXN_VOTE_REQUEST = "txn_vote_request"
    TXN_VOTE = "txn_vote"
    TXN_COMMIT = "txn_commit"
    TXN_ABORT = "txn_abort"
    TXN_ACK = "txn_ack"
    # DataTap data plane
    DATA_METADATA = "data_metadata"
    DATA_PULL_DONE = "data_pull_done"


_SEQ = itertools.count()

#: Default wire size of a bare control message, bytes.  EVPath control
#: messages are small FFS-encoded records.
CONTROL_MESSAGE_BYTES = 256


@dataclass
class Message:
    """A typed message with sender identity and payload.

    ``size_bytes`` is the wire size charged to the network; control messages
    default to :data:`CONTROL_MESSAGE_BYTES`, while metadata-bearing messages
    (e.g. ENDPOINT_INFO carrying contact lists) set it explicitly.
    """

    mtype: MessageType
    sender: str
    payload: Any = None
    size_bytes: int = CONTROL_MESSAGE_BYTES
    seq: int = field(default_factory=lambda: next(_SEQ))
    reply_to: Optional[int] = None

    def reply(self, mtype: MessageType, sender: str, payload: Any = None,
              size_bytes: int = CONTROL_MESSAGE_BYTES) -> "Message":
        """Construct a reply correlated to this message's sequence number."""
        return Message(mtype=mtype, sender=sender, payload=payload,
                       size_bytes=size_bytes, reply_to=self.seq)

    def __repr__(self) -> str:
        return f"<Msg {self.mtype.value} from={self.sender} seq={self.seq}>"


# ---------------------------------------------------------------------------
# Payload schemas
# ---------------------------------------------------------------------------

class MessageSchemaError(SimulationError):
    """A message's payload does not match its declared schema."""


@dataclass(frozen=True)
class MessageSchema:
    """Declared payload shape for one message type.

    ``freeform`` schemas accept any payload (acks, queries, metric reports
    whose fields vary by sender).  Otherwise the payload must be a mapping
    with every ``required`` field; fields outside ``required``/``optional``
    are rejected unless ``allow_extra`` is set.
    """

    mtype: MessageType
    required: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()
    allow_extra: bool = False
    freeform: bool = False
    #: every declared field, built once: :meth:`validate` runs on every send
    known: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "known", frozenset(self.required + self.optional))

    def validate(self, message: "Message") -> None:
        if self.freeform:
            return
        payload = message.payload
        if not isinstance(payload, Mapping):
            raise MessageSchemaError(
                f"{self.mtype.value} payload must be a mapping with fields "
                f"{sorted(self.required)}, got {type(payload).__name__}"
            )
        missing = [f for f in self.required if f not in payload]
        if missing:
            raise MessageSchemaError(
                f"{self.mtype.value} payload missing required fields "
                f"{missing} (got {sorted(payload)})"
            )
        if not self.allow_extra:
            known = self.known
            extra = [f for f in payload if f not in known]
            if extra:
                raise MessageSchemaError(
                    f"{self.mtype.value} payload has undeclared fields "
                    f"{extra} (declared: {sorted(known)})"
                )


def _schema(mtype: MessageType, *required: str, optional: Tuple[str, ...] = (),
            allow_extra: bool = False, freeform: bool = False) -> MessageSchema:
    return MessageSchema(mtype, tuple(required), tuple(optional),
                         allow_extra, freeform)


#: The message-schema registry: every control-protocol payload, declared.
SCHEMAS: Dict[MessageType, MessageSchema] = {s.mtype: s for s in (
    # Global manager -> local manager (Figure 3 protocol requests)
    _schema(MessageType.INCREASE_REQUEST, "nodes"),
    _schema(MessageType.DECREASE_REQUEST, "count", "to"),
    _schema(MessageType.OFFLINE_REQUEST),
    _schema(MessageType.SET_STRIDE, "stride"),
    _schema(MessageType.SET_HASHING, "enabled"),
    _schema(MessageType.REPLACE_REQUEST, "replica", "node"),
    # Local manager -> global manager completions
    _schema(MessageType.RESIZE_COMPLETE, "units", optional=("nodes",)),
    _schema(MessageType.OFFLINE_COMPLETE, "nodes", "unpulled"),
    _schema(MessageType.REPLACE_COMPLETE, "units", "redelivered"),
    # Failure detection and recovery
    _schema(MessageType.HEARTBEAT, "member"),
    _schema(MessageType.REPLICA_SUSPECT, "container", "replica", "suspected_at"),
    # Transactions (D2T, Figure 6)
    _schema(MessageType.TXN_VOTE_REQUEST, "txn_id"),
    _schema(MessageType.TXN_VOTE, "txn_id", "vote"),
    _schema(MessageType.TXN_COMMIT, "txn_id"),
    _schema(MessageType.TXN_ABORT, "txn_id"),
    _schema(MessageType.TXN_ACK, "txn_id"),
    # DataTap metadata (re-sent verbatim by the link on redelivery)
    _schema(MessageType.DATA_METADATA, "chunk_id", "seq", "nbytes", "natoms",
            "timestep", "writer", "writer_node"),
    # Intentionally open-ended payloads
    _schema(MessageType.ACK, freeform=True),
    _schema(MessageType.NACK, freeform=True),
    _schema(MessageType.METRIC_REPORT, freeform=True),
    _schema(MessageType.METRIC_AGGREGATE, freeform=True),
    _schema(MessageType.SPEEDUP_QUERY, freeform=True),
    _schema(MessageType.SPEEDUP_REPLY, freeform=True),
)}


def validate_message(message: "Message") -> None:
    """Validate ``message`` against its declared schema, if it has one.

    Message types without a registry entry are accepted as-is: the registry
    constrains the protocol messages it declares without forbidding ad-hoc
    types in tests and examples.
    """
    schema = SCHEMAS.get(message.mtype)
    if schema is not None:
        schema.validate(message)
