"""Message delivery over the simulated network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.simkernel import Environment
from repro.simkernel.errors import FaultError, SimulationError
from repro.cluster.network import Network, _Transfer
from repro.cluster.node import Node
from repro.evpath.endpoint import Endpoint
from repro.evpath.messages import Message, validate_message
from repro.perf.registry import REGISTRY


class RequestTimeout(FaultError):
    """A request saw no correlated reply within its timeout."""


#: the retry ladder: a failed send is tried RETRY_ATTEMPTS times in all,
#: sleeping RETRY_BASE_DELAY * RETRY_BACKOFF**i seconds between tries
#: (0.05, 0.1, 0.2 s)
RETRY_ATTEMPTS = 4
RETRY_BASE_DELAY = 0.05
RETRY_BACKOFF = 2.0


@dataclass
class RetryPolicy:
    """Retry-with-exponential-backoff for control-plane sends.

    A send that fails with a :class:`FaultError` (dead endpoint node, drop
    or partition window) is retried on the fixed ladder above
    (:data:`RETRY_ATTEMPTS` tries in all).  Anything that still fails
    propagates the last error to the sender.

    With ``jitter`` > 0 each sleep is scattered by a *deterministic*
    per-(seed, sender, attempt) factor in ``[1 - jitter, 1 + jitter)``:
    retry schedules stay exactly reproducible per DST seed, but two nodes
    retrying into the same healed partition no longer wake in lockstep
    (the thundering-herd the fixed ladder produced).  ``jitter=0`` (the
    default) yields the historical fixed ladder, byte-identical — no
    randomness is consumed, no key is hashed.
    """

    #: relative scatter applied to each delay; 0 = legacy fixed ladder
    jitter: float = 0.0
    #: DST seed the scatter derives from (threaded by the builder)
    seed: int = 0

    def _scatter(self, key, attempt: int) -> float:
        """Deterministic factor in [1 - jitter, 1 + jitter) for one sleep.

        SHA-256 of (seed, key, attempt), independent of PYTHONHASHSEED —
        the same seed and sender always produce the same schedule, and
        different senders (or seeds) decorrelate.
        """
        import hashlib

        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2**64
        return 1.0 + self.jitter * (2.0 * frac - 1.0)

    def delays(self, key=None):
        delay = RETRY_BASE_DELAY
        for attempt in range(RETRY_ATTEMPTS - 1):
            if self.jitter > 0.0 and key is not None:
                yield delay * self._scatter(key, attempt)
            else:
                yield delay
            delay *= RETRY_BACKOFF


class _FastSend(_Transfer):
    """The send path: a :class:`~repro.cluster.network._Transfer` whose
    outcome is the send's.  One object walks a message from its accounting
    to the destination mailbox, outcome-identical to the process send that
    :mod:`tests.oracles.evpath` keeps as the differential oracle.  Besides
    the transfer's own events it schedules only the mailbox put, a retry
    backoff ``Timeout`` per retry, and ``result``, which succeeds with the
    message once it is delivered.

    The constructor does the control-plane accounting and places the first
    attempt on ``dest.node``.  A :class:`FaultError` from a transfer attempt
    is retried along the messenger's :class:`RetryPolicy` ladder, keyed
    ``src:dest:messages_sent`` as of the accounting, re-reading
    ``dest.node`` so a rehosted endpoint's new placement applies; a spent
    ladder, or an error that is not a fault, fails ``result``, so an
    unwatched send is counted in ``env.swallowed_faults``.
    """

    __slots__ = ("messenger", "dest", "message", "_seq", "_delays")

    def __init__(self, messenger: "Messenger", src_node: Node, dest: Endpoint, message: Message):
        self.messenger = messenger
        self.dest = dest
        self.message = message
        self._delays = None
        messenger.messages_sent += 1
        messenger.bytes_sent += message.size_bytes
        self._seq = messenger.messages_sent
        # ``result`` fires with the message after mailbox delivery, or fails
        # with the transfer's last error once retries are exhausted.
        _Transfer.__init__(self, messenger.network, src_node, dest.node, message.size_bytes)

    def _completed(self, _event) -> None:
        # The bytes arrived: put the message into the destination mailbox.
        self.dest.deliver(self.message).callbacks.append(self._complete)

    def _failed(self, error: Exception) -> None:
        messenger = self.messenger
        if self._delays is None:
            key = f"{self.src.node_id}:{self.dest.name}:{self._seq}"
            self._delays = iter(messenger.retry.delays(key))
        delay = next(self._delays, None) if isinstance(error, FaultError) else None
        if delay is None:
            # Retries exhausted (or not a fault): surface the error.
            self.result.fail(error)
            return
        messenger.retries += 1
        REGISTRY.count("evpath.retries")
        # Back off, then re-place and retry the transfer.
        messenger.env.timeout(delay).callbacks.append(self._retry)

    def _retry(self, _event) -> None:
        # dest.node is read per attempt, so a rehosted endpoint's new
        # placement takes effect on the retry.
        self.dst = self.dest.node
        self._launch()

    def _complete(self, _event) -> None:
        # The mailbox put fired: the send returns the message.
        self.result.succeed(self.message)


class Messenger:
    """Registry + transport for endpoints.

    One messenger per experiment; it owns the endpoint namespace and moves
    messages across the :class:`~repro.cluster.network.Network`, charging
    each message's wire size.  Statistics distinguish *control-plane* bytes
    (what Figure 4 calls "point-to-point messages between managers") from the
    data plane, which goes through DataTap instead.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        retry: Optional[RetryPolicy] = None,
    ):
        self.env = env
        self.network = network
        self.retry = retry if retry is not None else RetryPolicy()
        self._endpoints: Dict[str, Endpoint] = {}
        #: control-plane accounting
        self.messages_sent = 0
        self.bytes_sent = 0
        self.retries = 0

    # -- registry -------------------------------------------------------------

    def endpoint(self, node: Node, name: str, cls: type = Endpoint) -> Endpoint:
        """Create and register an endpoint with a unique name.

        ``cls`` is an :class:`Endpoint` subclass for an owner that takes its
        deliveries itself (a transaction participant).
        """
        if name in self._endpoints:
            raise SimulationError(f"endpoint {name!r} already registered")
        ep = cls(self.env, node, name)
        self._endpoints[name] = ep
        return ep

    def unregister(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def lookup(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise SimulationError(f"unknown endpoint {name!r}") from None

    # -- sending ---------------------------------------------------------------

    def send(self, src_node: Node, to: str, message: Message):
        """Send ``message`` to the endpoint named ``to``.

        Returns an event that fires with the message after it is delivered
        into the destination mailbox, or fails with the transfer's last
        :class:`FaultError` once the :class:`RetryPolicy` ladder is spent.
        The payload is validated against the message type's declared schema
        *before* the send is created, so malformed control messages raise at
        the call site.  Every send, fault-armed or not, is a
        :class:`_FastSend` chain.
        """
        validate_message(message)
        return _FastSend(self, src_node, self.lookup(to), message).result

    def request(
        self,
        src_node: Node,
        src_endpoint: Endpoint,
        to: str,
        message: Message,
        timeout: Optional[float] = None,
    ):
        """Send and wait for the correlated reply; value is the reply message.

        With ``timeout`` set, a reply that does not arrive in time fails the
        request with :class:`RequestTimeout` (a :class:`FaultError`, so
        callers can treat it as routine and retry at protocol level).
        """
        return self.env.process(
            self._request(src_node, src_endpoint, to, message, timeout),
            name=("request {}", message.mtype.value),
        )

    def _request(
        self,
        src_node: Node,
        src_endpoint: Endpoint,
        to: str,
        message: Message,
        timeout: Optional[float] = None,
    ):
        yield self.send(src_node, to, message)
        reply_get = src_endpoint.recv_reply(message)
        if timeout is None:
            reply = yield reply_get
            return reply
        timer = self.env.timeout(timeout)
        yield self.env.any_of([reply_get, timer])
        if not reply_get.triggered:
            src_endpoint._inbox.cancel_get(reply_get)
            raise RequestTimeout(
                f"no reply to {message!r} from {to!r} within {timeout}s"
            )
        return reply_get.value

