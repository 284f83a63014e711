"""The per-replica heartbeat process and the scanning failure detector,
frozen for differential testing.

:class:`HeartbeatSender` is the process every watched replica ran before
:class:`~repro.faults.detect.FailureDetector` began crediting lease beats
arithmetically: wake every ``interval``, skip the beat while the member's
node is down, otherwise send a HEARTBEAT to the monitor endpoint.  Driving
the same watch/crash/rehost schedule through it (plus a
:class:`~repro.faults.detect.HeartbeatMonitor`) and through the lease grid
pins the grid to these exact suspicion semantics.

:class:`FailureDetector` here is the lease-grid detector as it stood before
its wakes became quiescent: a process that scans every lease each
``check_interval`` whether or not anything can fall due.  The production
detector must suspect, re-grant and credit exactly as this one does.

Tests drive both; nothing in production calls them.  Do not modify this
file when optimizing detection — it is the baseline.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.simkernel import Environment, Interrupt
from repro.cluster.node import Node
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.perf.registry import REGISTRY

if TYPE_CHECKING:
    from repro.faults.detect import HeartbeatMonitor


class HeartbeatSender:
    """Periodic HEARTBEAT from a member to a monitor endpoint.

    The send is fire-and-forget: if the member's node is down the loop
    idles (a dead node cannot inject), and if the *monitor's* node is down
    the transfer fails with a :class:`FaultError` that the environment
    swallows — silence at the detector is exactly the failure signal.
    """

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        member: str,
        node: Node,
        monitor_endpoint: str,
        interval: float,
    ):
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval}")
        self.env = env
        self.messenger = messenger
        self.member = member
        self.node = node
        self.monitor_endpoint = monitor_endpoint
        self.interval = float(interval)
        self.sent = 0
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.env.process(
                self._loop(), name=f"heartbeat {self.member}"
            )

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        self._proc = None

    def _loop(self):
        while True:
            try:
                yield self.env.timeout(self.interval)
            except Interrupt:
                return
            if self.node.failed:
                continue  # a dead node sends nothing
            self.sent += 1
            REGISTRY.count("faults.heartbeats_sent")
            self.messenger.send(
                self.node,
                self.monitor_endpoint,
                Message(MessageType.HEARTBEAT, sender=self.member,
                        payload={"member": self.member}),
            )


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
