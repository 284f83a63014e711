"""Lease-based failure detection over the EVPath control plane.

Detection is hierarchical, mirroring the container management tree:
replicas hold heartbeat leases at their LocalManager's detector, and
LocalManagers' periodic METRIC_REPORTs over the monitoring overlay double
as their heartbeat to the GlobalManager (the GlobalManager calls
:meth:`FailureDetector.beat` on receipt, so manager liveness rides the
existing overlay for free).

A replica's lease is a *grid*: it beats at ``t0 + k * interval`` from the
instant it is watched.  The detector credits those beats arithmetically
on every scan (and on :meth:`FailureDetector.unwatch`) instead of
simulating one HEARTBEAT message per interval.  Three cut-offs decide
which grid beats count:

* **Member crash.** A beat due at or after the member node's crash
  (:attr:`~repro.cluster.node.Node.failed_at`) is never credited — a dead
  node sends nothing.
* **Dead monitor.** A beat due while the monitor's node was down is not
  credited; :meth:`HeartbeatMonitor.rehost` records the outage window.
* **Link-fault windows.** A beat due while a partition, drop or degrade
  window of the :class:`~repro.faults.netstate.NetworkFaultState` covers
  the (member node, monitor node) pair is a real HEARTBEAT, sent through
  the :class:`~repro.evpath.channel.Messenger` — retry ladder, drops and
  partitions included — to the :class:`HeartbeatMonitor` endpoint, and
  counts only if it arrives.  Coverage is decided when each beat is due;
  the sender process lives only as long as the window.

Outside link-fault windows a liveness beat is modelled as a small eager
message: it holds no NIC stream slot, so it never delays a data-plane
transfer.

A member whose lease goes silent past ``lease_timeout`` is *suspected* and
the detector's ``on_suspect`` callback fires — recovery decides what to do.
Suspicion is not conviction: a later beat from a suspected member clears it
and increments :attr:`FailureDetector.false_positives` (a partition longer
than the lease makes this reachable, which is why the accounting exists).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.simkernel import Environment, Interrupt
from repro.cluster.node import Node
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.perf.registry import REGISTRY


class _Lease:
    """One member's heartbeat grid: beats are due at ``t0 + k * interval``."""

    __slots__ = ("node", "interval", "t0", "next_k", "sent")

    def __init__(self, node: Node, interval: float, t0: float):
        self.node = node
        self.interval = interval
        self.t0 = t0
        #: first grid index neither credited nor skipped yet
        self.next_k = 1
        #: grid indices sent as real HEARTBEATs inside a link-fault window
        self.sent = set()

    def due(self, k: int) -> float:
        return self.t0 + k * self.interval


class FailureDetector:
    """Tracks leases for a set of members and suspects the silent ones.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Label for processes and reporting.
    lease_timeout:
        Seconds of silence after which a member is suspected.
    check_interval:
        Lease-scan period; defaults to a quarter of the timeout.
    on_suspect:
        Callback ``fn(member)`` invoked when a member is first suspected.
    suspend_when:
        Optional predicate; while it returns True (e.g. the detector's own
        host node is down) scanning pauses and, on resume, every lease is
        re-granted so the outage itself does not convict every member.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        lease_timeout: float,
        check_interval: Optional[float] = None,
        on_suspect: Optional[Callable[[str], None]] = None,
        suspend_when: Optional[Callable[[], bool]] = None,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        self.env = env
        self.name = name
        self.lease_timeout = float(lease_timeout)
        self.check_interval = float(check_interval or lease_timeout / 4.0)
        self.on_suspect = on_suspect
        self.suspend_when = suspend_when
        self._last_beat: Dict[str, float] = {}
        self._grid: Dict[str, _Lease] = {}
        self.suspected = set()
        #: members suspected and later heard from again
        self.false_positives = 0
        #: total beats accepted, credited grid beats included
        self.beats = 0
        #: the endpoint real heartbeats go to (set by :class:`HeartbeatMonitor`)
        self.monitor: Optional[HeartbeatMonitor] = None
        #: ``[start, end)`` spans during which the monitor's node was down
        self._outages: List[Tuple[float, float]] = []
        self._links = None
        self._window_end: Optional[float] = None
        self._proc = None
        self._was_suspended = False

    # -- membership --------------------------------------------------------------

    def watch(self, member: str, node: Optional[Node] = None,
              interval: Optional[float] = None) -> None:
        """Start tracking ``member``; grants a fresh lease.

        With ``node`` and ``interval`` the member beats on a grid from now
        on; without them its lease is kept alive only by :meth:`beat`.
        """
        self._last_beat[member] = self.env.now
        if node is None:
            return
        if interval is None or interval <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval}")
        lease = self._grid[member] = _Lease(node, float(interval), self.env.now)
        if self._window_end is not None:
            self._start_sender(member, lease, self._window_end)

    def unwatch(self, member: str) -> None:
        """Stop tracking ``member`` (e.g. it was retired deliberately).

        Its grid beats due up to now are credited first.
        """
        lease = self._grid.pop(member, None)
        if lease is not None:
            self._credit(member, lease, inclusive=True)
        self._last_beat.pop(member, None)
        self.suspected.discard(member)

    def __contains__(self, member: str) -> bool:
        return member in self._last_beat

    @property
    def members(self):
        return sorted(self._last_beat)

    def monitor_outage(self, start: float, end: float) -> None:
        """Grid beats due in ``[start, end)`` reached a dead monitor."""
        self._outages.append((start, end))

    # -- beats -------------------------------------------------------------------

    def beat(self, member: str) -> None:
        """Record a received heartbeat; clears (and counts) a wrongful suspicion."""
        if member not in self._last_beat:
            return  # not ours to track (already unwatched)
        self._heard(member, self.env.now)
        self.beats += 1
        REGISTRY.count("faults.heartbeats_received")

    def _heard(self, member: str, at: float) -> None:
        if member in self.suspected:
            self.suspected.discard(member)
            self.false_positives += 1
            REGISTRY.count("faults.false_positives")
        if at > self._last_beat[member]:
            self._last_beat[member] = at

    def _credit(self, member: str, lease: _Lease, inclusive: bool = False) -> None:
        """Credit ``member``'s grid beats due before now (or at now, if
        ``inclusive``) that survive the crash, outage and link cut-offs.

        A scan leaves the beat due at its own instant uncredited: like a
        real beat it is still in flight, and inside a link-fault window the
        sender may not have decided it yet.
        """
        now = self.env.now
        t0, step, lo = lease.t0, lease.interval, lease.next_k
        hi = math.floor((now - t0) / step)
        last = t0 + hi * step
        if last > now or (last == now and not inclusive):
            hi -= 1
            last = t0 + hi * step
        if hi < lo:
            return
        lease.next_k = hi + 1
        cutoff = lease.node.failed_at
        if self.monitor is not None:
            down = self.monitor.endpoint.node.failed_at
            if down is not None and (cutoff is None or down < cutoff):
                cutoff = down
        if cutoff is None and not lease.sent and not self._outages:
            count = hi - lo + 1  # nothing can have lost a beat
        else:
            count, last = 0, None
            for k in range(lo, hi + 1):
                due = t0 + k * step
                if cutoff is not None and due >= cutoff:
                    break
                if k in lease.sent:
                    lease.sent.discard(k)
                elif not any(a <= due < b for a, b in self._outages):
                    count += 1
                    last = due
        if count:
            self._heard(member, last)
            self.beats += count
            REGISTRY.count("faults.lease_beats_credited", count)

    # -- link-fault windows --------------------------------------------------------

    def arm_links(self, faults) -> None:
        """Send real HEARTBEATs for grid beats inside ``faults``' windows.

        ``faults`` is the :class:`~repro.faults.netstate.NetworkFaultState`
        of the armed plan; one process per merged window span opens a
        per-member sender for the span's length.
        """
        self._links = faults
        for start, end in faults.spans():
            if end > self.env.now:
                self.env.process(self._link_window(start, end),
                                 name=f"link-window {self.name}")

    def _link_window(self, start: float, end: float):
        if start > self.env.now:
            yield self.env.timeout(start - self.env.now)
        self._window_end = end
        for member, lease in list(self._grid.items()):
            self._start_sender(member, lease, end)
        yield self.env.timeout(end - self.env.now)
        self._window_end = None

    def _start_sender(self, member: str, lease: _Lease, end: float) -> None:
        self.env.process(self._send_beats(member, lease, end),
                         name=f"heartbeat {member}")

    def _send_beats(self, member: str, lease: _Lease, end: float):
        """Real HEARTBEATs for the grid beats due before ``end`` whose
        (member node, monitor node) pair a window covers when they fall due."""
        monitor = self.monitor
        k = max(lease.next_k, math.ceil((self.env.now - lease.t0) / lease.interval))
        while lease.due(k) < end:
            delay = lease.due(k) - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if self._grid.get(member) is not lease:
                return  # unwatched
            if not lease.node.failed and self._links.covers(
                lease.node, monitor.endpoint.node
            ):
                lease.sent.add(k)
                REGISTRY.count("faults.heartbeats_sent")
                monitor.messenger.send(
                    lease.node,
                    monitor.endpoint.name,
                    Message(MessageType.HEARTBEAT, sender=member,
                            payload={"member": member}),
                )
            k += 1

    # -- scanning ----------------------------------------------------------------

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.env.process(
                self._check_loop(), name=f"detector {self.name}"
            )

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        self._proc = None
        self._grid.clear()  # ends any link-window sender at its next beat

    def _check_loop(self):
        while True:
            try:
                yield self.env.timeout(self.check_interval)
            except Interrupt:
                return
            if self.suspend_when is not None and self.suspend_when():
                self._was_suspended = True
                continue
            for member, lease in self._grid.items():
                self._credit(member, lease)
            now = self.env.now
            if self._was_suspended:
                # Back from an outage of our own: re-grant every lease so the
                # outage window does not read as everyone else's death.
                self._was_suspended = False
                for member in self._last_beat:
                    self._last_beat[member] = now
                continue
            for member in self.members:
                if member in self.suspected:
                    continue
                if now - self._last_beat[member] > self.lease_timeout:
                    self.suspected.add(member)
                    REGISTRY.count("faults.suspects")
                    if self.on_suspect is not None:
                        self.on_suspect(member)


class HeartbeatMonitor:
    """Owns a dedicated endpoint whose HEARTBEAT receipts feed a detector.

    Kept separate from the manager's control endpoint so a long-running
    control protocol (an increase mid-flight) cannot head-of-line block
    heartbeats into a false suspicion.  The detector sends its real
    (link-window) heartbeats here and reads the endpoint's node as the
    monitor's placement.
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        endpoint_name: str,
        node: Node,
        detector: FailureDetector,
    ):
        self.env = env
        self.messenger = messenger
        self.detector = detector
        self.endpoint = messenger.endpoint(node, endpoint_name)
        detector.monitor = self
        self._proc = env.process(self._recv_loop(), name=f"hb-monitor {endpoint_name}")

    def rehost(self, node: Node) -> None:
        """Re-pin the monitor endpoint after its host was replaced.

        Grid beats due between the old host's crash and now found no
        monitor; the detector is told so it never credits them.
        """
        failed_at = self.endpoint.node.failed_at
        if failed_at is not None:
            self.detector.monitor_outage(failed_at, self.env.now)
        self.endpoint.node = node

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        self._proc = None
        self.messenger.unregister(self.endpoint.name)

    def _recv_loop(self):
        while True:
            try:
                msg = yield self.endpoint.recv(MessageType.HEARTBEAT)
            except Interrupt:
                return
            self.detector.beat(msg.payload["member"])
