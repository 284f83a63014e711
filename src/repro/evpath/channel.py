"""Message delivery over the simulated network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.simkernel import Environment, Event
from repro.simkernel.errors import FaultError, SimulationError
from repro.simkernel.events import NORMAL, URGENT
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.evpath.endpoint import Endpoint
from repro.evpath.messages import Message, validate_message
from repro.perf.registry import REGISTRY


class RequestTimeout(FaultError):
    """A request saw no correlated reply within its timeout."""


@dataclass
class RetryPolicy:
    """Retry-with-exponential-backoff for control-plane sends.

    A send that fails with a :class:`FaultError` (dead endpoint node, drop
    or partition window) is retried up to ``attempts`` total tries, sleeping
    ``base_delay * backoff**i`` between them.  Anything that still fails
    propagates the last error to the sender.

    With ``jitter`` > 0 each sleep is scattered by a *deterministic*
    per-(seed, sender, attempt) factor in ``[1 - jitter, 1 + jitter)``:
    retry schedules stay exactly reproducible per DST seed, but two nodes
    retrying into the same healed partition no longer wake in lockstep
    (the thundering-herd the fixed ladder produced).  ``jitter=0`` (the
    default) yields the historical fixed ladder, byte-identical — no
    randomness is consumed, no key is hashed.
    """

    attempts: int = 4
    base_delay: float = 0.05
    backoff: float = 2.0
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
        delay = self.base_delay
        for attempt in range(max(0, self.attempts - 1)):
            if self.jitter > 0.0 and key is not None:
                yield delay * self._scatter(key, attempt)
            else:
                yield delay
            delay *= self.backoff


class _FastSend:
    """The send path: one message walked through the network as callbacks.

    A process-per-message send costs two generators, two ``Initialize``
    events, a ``Condition`` and several names per message.  This class walks
    the *identical* event sequence — fault windows, retries and rehosted
    endpoints included — with bare events and plain callbacks:

    ==  ==========================  =====================================
    #   process path                callback chain
    ==  ==========================  =====================================
    1   Initialize(send proc)       step event -> _begin
    2   Initialize(xfer proc)       step event -> _transfer_start
    3   send-channel Request        same (real Request)
    4   recv-channel Request        same (real Request)
    5   AllOf condition fires       step event -> _serialize
    6   serialization Timeout       same (real Timeout)
    7   xfer process completes      step event -> _deliver
    8   mailbox StorePut            same (real StorePut)
    9   send process completes      ``result`` succeeds
    F   xfer process fails          defused failed event -> _on_failure
    R   retry backoff Timeout       same (real Timeout) -> _retry -> row 2
    X   retries exhausted           ``result`` fails
    ==  ==========================  =====================================

    Each row schedules at the same priority/time and in the same global
    ``schedule()`` call order, so under any tie-breaker the heap — and
    therefore every downstream schedule — is byte-identical to the process
    path, which :mod:`repro.evpath._reference` keeps as the differential
    oracle.  NIC contention is real: rows 3/4 are ordinary
    :class:`Resource` requests that queue exactly as before.  An intra-node
    send (``src is dst``) walks the shorter 1-2-overhead-7-8-9 chain.

    Row F is reached from row 2 (a dead endpoint node, a partition, a
    dropped message: ``Network._check_endpoints`` then
    ``faults.transit_check``, the calls the transfer process makes) or
    from row 6 (an endpoint node crashed mid-serialization).  A
    :class:`FaultError` is retried along the messenger's
    :class:`RetryPolicy` ladder, keyed ``src:dest:messages_sent`` as of row
    1, and ``dest.node`` is re-read before each attempt so a rehosted
    endpoint's new placement applies; once the ladder is spent ``result``
    fails, so an unwatched send is counted in ``env.swallowed_faults``.
    """

    __slots__ = (
        "messenger", "src", "dest", "message", "result",
        "_dst", "_granted", "_send_req", "_recv_req", "_start", "_duration",
        "_seq", "_delays",
    )

    def __init__(self, messenger: "Messenger", src_node: Node, dest: Endpoint, message: Message):
        self.messenger = messenger
        self.src = src_node
        self.dest = dest
        self.message = message
        #: fires with the message after mailbox delivery, or fails with the
        #: transfer's last error once retries are exhausted
        self.result = Event(messenger.env)
        self._delays = None
        self._step(self._begin, URGENT)

    def _step(self, fn, priority: int) -> None:
        """Schedule a bare event that runs ``fn`` when popped."""
        env = self.messenger.env
        ev = Event(env)
        ev._ok = True
        ev._value = None
        ev.callbacks.append(fn)
        env.schedule(ev, priority)

    def _begin(self, _event) -> None:
        # [1] what the send process did first: control-plane accounting,
        # then the first attempt's destination placement.
        messenger = self.messenger
        messenger.messages_sent += 1
        messenger.bytes_sent += self.message.size_bytes
        self._seq = messenger.messages_sent
        self._dst = self.dest.node
        self._step(self._transfer_start, URGENT)

    def _transfer_start(self, _event) -> None:
        # [2] the transfer process body up to its first yield.
        src, dst = self.src, self._dst
        network = self.messenger.network
        faults = network.faults
        if faults is not None or src.failed or dst.failed:
            try:
                network._check_endpoints(src, dst)
                if faults is not None:
                    faults.transit_check(src, dst, self.message.size_bytes)
            except FaultError as error:
                self._fail(error)
                return
        env = network.env
        if src is dst:
            # Intra-node move: software overhead only, then deliver.
            t = env.timeout(network.software_overhead)
            t.callbacks.append(self._local_done)
            return
        self._start = env.now
        self._granted = 0
        send_req = self._send_req = src.nic.send_channel.request()
        recv_req = self._recv_req = dst.nic.recv_channel.request()
        send_req.callbacks.append(self._on_grant)
        recv_req.callbacks.append(self._on_grant)

    def _on_grant(self, _event) -> None:
        # [3]/[4] pop; when both channels are held, [5] fires the condition.
        self._granted += 1
        if self._granted == 2:
            self._step(self._serialize, NORMAL)

    def _serialize(self, _event) -> None:
        # [5] pop: start the wire-time clock.
        network = self.messenger.network
        env = network.env
        self._start = env.now - self._start  # now holds the waited time
        duration = network.ideal_transfer_time(self.src, self._dst, self.message.size_bytes)
        if network.faults is not None:
            duration *= network.faults.delay_factor(self.src, self._dst)
        self._duration = duration
        t = env.timeout(duration)
        t.callbacks.append(self._transfer_done)

    def _transfer_done(self, _event) -> None:
        # [6] pop: release channels (may grant queued requests, exactly as
        # the process path's finally block), account, complete the transfer.
        src, dst = self.src, self._dst
        network = self.messenger.network
        src.nic.send_channel.release(self._send_req)
        dst.nic.recv_channel.release(self._recv_req)
        if src.failed or dst.failed:
            # A crash during serialization loses the message at the receiver.
            try:
                network._check_endpoints(src, dst)
            except FaultError as error:
                self._fail(error)
                return
        nbytes = self.message.size_bytes
        src.nic.bytes_sent += nbytes
        dst.nic.bytes_received += nbytes
        network.stats.record(src.node_id, dst.node_id, nbytes, self._duration, self._start)
        self._step(self._deliver, NORMAL)

    def _local_done(self, _event) -> None:
        # Intra-node [overhead] pop -> the transfer process's completion.
        self._step(self._deliver, NORMAL)

    def _fail(self, error: FaultError) -> None:
        # [F] the transfer process failing: a failed event the send process
        # would have caught (hence defused), popped at NORMAL.
        ev = Event(self.messenger.env)
        ev._ok = False
        ev._value = error
        ev._defused = True
        ev.callbacks.append(self._on_failure)
        self.messenger.env.schedule(ev, NORMAL)

    def _on_failure(self, event) -> None:
        # [F] pop: the send process's ``except FaultError`` clause.
        messenger = self.messenger
        if self._delays is None:
            key = f"{self.src.node_id}:{self.dest.name}:{self._seq}"
            self._delays = iter(messenger.retry.delays(key))
        delay = next(self._delays, None)
        if delay is None:
            # [X] retries exhausted: surface the FaultError.
            self.result.fail(event._value)
            return
        messenger.retries += 1
        REGISTRY.count("evpath.retries")
        # [R] back off, then re-place and retry the transfer.
        t = messenger.env.timeout(delay)
        t.callbacks.append(self._retry)

    def _retry(self, _event) -> None:
        # [R] pop: dest.node is read per attempt, so a rehosted endpoint's
        # new placement takes effect on the retry.
        self._dst = self.dest.node
        self._step(self._transfer_start, URGENT)

    def _deliver(self, _event) -> None:
        # [7] pop: the send process resumed and called dest.deliver().
        put = self.dest.deliver(self.message)
        put.callbacks.append(self._complete)

    def _complete(self, _event) -> None:
        # [8] pop: the send process returned the message -> [9].
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

    def endpoint(self, node: Node, name: str) -> Endpoint:
        """Create and register an endpoint with a unique name."""
        if name in self._endpoints:
            raise SimulationError(f"endpoint {name!r} already registered")
        ep = Endpoint(self.env, node, name)
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


class Channel:
    """A fixed point-to-point pipe between two endpoints.

    Thin convenience over :class:`Messenger` for component-to-component
    links whose ends do not change (e.g. manager <-> replica).
    """

    def __init__(self, messenger: Messenger, src: Endpoint, dst: Endpoint):
        self.messenger = messenger
        self.src = src
        self.dst = dst

    def send(self, message: Message):
        return self.messenger.send(self.src.node, self.dst.name, message)

    def request(self, message: Message):
        return self.messenger.request(self.src.node, self.src, self.dst.name, message)
