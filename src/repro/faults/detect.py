"""Lease-based failure detection over the EVPath control plane.

Detection is hierarchical, mirroring the container management tree:
replicas hold heartbeat leases at their LocalManager's detector, and
LocalManagers' periodic METRIC_REPORTs over the monitoring overlay double
as their heartbeat to the GlobalManager (the GlobalManager calls
:meth:`FailureDetector.beat` on receipt, so manager liveness rides the
existing overlay for free).

A replica's lease is a *grid*: it beats at ``t0 + k * interval`` from the
instant it is watched.  The detector credits those beats arithmetically
(at a scan, on :meth:`FailureDetector.unwatch`, and when
:attr:`FailureDetector.beats` is read) instead of simulating one HEARTBEAT
message per interval.  Three cut-offs decide which grid beats count:

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

A member whose lease goes silent past ``lease_timeout`` is *suspected* at
the next scan instant, and the detector's ``on_suspect`` callback fires —
recovery decides what to do.  Scans are quiescent: the detector wakes only
at an instant where one can fall due, so a healthy grid lease costs no
event at all.
Suspicion is not conviction: a later beat from a suspected member clears it
and increments :attr:`FailureDetector.false_positives` (a partition longer
than the lease makes this reachable, which is why the accounting exists).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.simkernel import Environment, Event, bare_event
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


#: scan instants per lease timeout: the scan grid's step is
#: ``lease_timeout / SCANS_PER_LEASE``
SCANS_PER_LEASE = 4


class FailureDetector:
    """Tracks leases for a set of members and suspects the silent ones.

    Suspicion is decided on a scan grid: instants ``s_{n+1} = s_n + step``
    chained from :meth:`start`, ``step = lease_timeout / SCANS_PER_LEASE``.
    The detector wakes only at an instant where a scan can change something
    (see :meth:`_due`); every other instant is skipped, its credits taken
    lazily, so suspicions, re-grants and credited beats are exactly those
    of a scan at every instant (:mod:`tests.oracles.faults` keeps that
    scanning detector as the oracle).

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Label for reporting.
    lease_timeout:
        Seconds of silence after which a member is suspected.
    on_suspect:
        Callback ``fn(member)`` invoked when a member is first suspected.
    suspend_when:
        Optional predicate; while it returns True (e.g. the detector's own
        host node is down) scanning pauses and, on resume, every lease is
        re-granted so the outage itself does not convict every member.  It
        is re-read at each wake and whenever a node fails or is restored,
        so it must change only with node health.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        lease_timeout: float,
        on_suspect: Optional[Callable[[str], None]] = None,
        suspend_when: Optional[Callable[[], bool]] = None,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        self.env = env
        self.name = name
        self.lease_timeout = float(lease_timeout)
        self.check_interval = self.lease_timeout / SCANS_PER_LEASE
        self.on_suspect = on_suspect
        self.suspend_when = suspend_when
        self._last_beat: Dict[str, float] = {}
        self._grid: Dict[str, _Lease] = {}
        self.suspected = set()
        #: members suspected and later heard from again
        self.false_positives = 0
        #: scans run (wakes of the scan timer)
        self.scans = 0
        self._beats = 0
        #: the endpoint real heartbeats go to (set by :class:`HeartbeatMonitor`)
        self.monitor: Optional[HeartbeatMonitor] = None
        #: ``[start, end)`` spans during which the monitor's node was down
        self._outages: List[Tuple[float, float]] = []
        self._links = None
        self._window_end: Optional[float] = None
        self._was_suspended = False
        #: the scan grid: its first point (the start instant), the latest
        #: instant passed (scanned or skipped; None while stopped), and the
        #: armed wake's event and instant
        self._origin = 0.0
        self._at: Optional[float] = None
        self._timer: Optional[Event] = None
        self._wake: Optional[float] = None

    # -- membership --------------------------------------------------------------

    def watch(self, member: str, node: Optional[Node] = None,
              interval: Optional[float] = None) -> None:
        """Start tracking ``member``; grants a fresh lease.

        With ``node`` and ``interval`` the member beats on a grid from now
        on; without them its lease is kept alive only by :meth:`beat`.
        """
        if node is not None:
            if interval is None or interval <= 0:
                raise ValueError(f"heartbeat interval must be positive, got {interval}")
            old = self._grid.get(member)
            if old is not None:
                self._catch_up({member: old})  # what the skipped scans credited
        self._last_beat[member] = self.env.now
        if node is not None:
            lease = self._grid[member] = _Lease(node, float(interval), self.env.now)
            if self._window_end is not None:
                self._start_sender(member, lease, self._window_end)
        self._arm_for(member)

    def unwatch(self, member: str) -> None:
        """Stop tracking ``member`` (e.g. it was retired deliberately).

        Its grid beats due up to now are credited first.
        """
        lease = self._grid.pop(member, None)
        if lease is not None:
            self._credit(member, lease, self.env.now, inclusive=True)
        self._last_beat.pop(member, None)
        self.suspected.discard(member)
        self._rearm()

    def __contains__(self, member: str) -> bool:
        return member in self._last_beat

    @property
    def members(self):
        return sorted(self._last_beat)

    def monitor_outage(self, start: float, end: float) -> None:
        """Grid beats due in ``[start, end)`` reached a dead monitor."""
        self._outages.append((start, end))
        self._rearm()

    # -- beats -------------------------------------------------------------------

    @property
    def beats(self) -> int:
        """Total beats accepted, credited grid beats included: read as a
        scan at every grid instant up to now would have credited them."""
        self._catch_up(self._grid)
        return self._beats

    def beat(self, member: str) -> None:
        """Record a received heartbeat; clears (and counts) a wrongful suspicion."""
        if member not in self._last_beat:
            return  # not ours to track (already unwatched)
        cleared = member in self.suspected
        self._heard(member, self.env.now)
        self._beats += 1
        REGISTRY.count("faults.heartbeats_received")
        if cleared:
            self._arm_for(member)  # its lease runs again

    def _heard(self, member: str, at: float) -> None:
        if member in self.suspected:
            self.suspected.discard(member)
            self.false_positives += 1
            REGISTRY.count("faults.false_positives")
        if at > self._last_beat[member]:
            self._last_beat[member] = at

    def _credit(self, member: str, lease: _Lease, upto: float,
                inclusive: bool = False) -> None:
        """Credit ``member``'s grid beats due before ``upto`` (or at it, if
        ``inclusive``) that survive the crash, outage and link cut-offs.

        A scan leaves the beat due at its own instant uncredited: like a
        real beat it is still in flight, and inside a link-fault window the
        sender may not have decided it yet.
        """
        t0, step, lo = lease.t0, lease.interval, lease.next_k
        hi = math.floor((upto - t0) / step)
        last = t0 + hi * step
        if last > upto or (last == upto and not inclusive):
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
            self._beats += count
            REGISTRY.count("faults.lease_beats_credited", count)

    def _catch_up(self, leases: Dict[str, _Lease]) -> None:
        """Credit ``leases`` as the scans skipped up to now would have: up to
        the last grid instant at or before now that precedes the armed wake.

        Nothing is due while the detector is suspended: those scans credit
        nothing, and the resume scan is always a wake.
        """
        if self._at is None or self._was_suspended:
            return
        s, step, now, wake = self._at, self.check_interval, self.env.now, self._wake
        nxt = s + step
        while nxt <= now and (wake is None or nxt < wake):
            s, nxt = nxt, nxt + step
        if s > self._origin:
            for member, lease in leases.items():
                self._credit(member, lease, s)

    # -- link-fault windows --------------------------------------------------------

    def arm_links(self, faults) -> None:
        """Send real HEARTBEATs for grid beats inside ``faults``' windows.

        ``faults`` is the :class:`~repro.faults.netstate.NetworkFaultState`
        of the armed plan; one process per merged window span opens a
        per-member sender for the span's length (and wakes the scan grid
        for it).
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
        self._rearm()
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
        if self._at is None:
            self._origin = self._at = self.env.now
            self.env.health_listeners.append(self._on_health)
            self._rearm()

    def stop(self) -> None:
        if self._at is not None:
            self._catch_up(self._grid)
            self.env.health_listeners.remove(self._on_health)
            self._set_wake(None)
            self._at = None
        self._grid.clear()  # ends any link-window sender at its next beat

    def _on_health(self, _node: Node) -> None:
        # A node failed or came back: only re-arm.  Suspicion itself waits
        # for the scan instant, as if every instant were scanned.
        self._rearm()

    def _scan(self, _event) -> None:
        self.scans += 1
        suspended = self.suspend_when is not None and self.suspend_when()
        if suspended:
            self._catch_up(self._grid)  # no instant skipped so far was suspended
        now = self._at = self._wake
        self._timer = self._wake = None
        if suspended:
            self._was_suspended = True
        else:
            for member, lease in self._grid.items():
                self._credit(member, lease, now)
            if self._was_suspended:
                # Back from an outage of our own: re-grant every lease so the
                # outage window does not read as everyone else's death.
                self._was_suspended = False
                for member in self._last_beat:
                    self._last_beat[member] = now
            else:
                for member in self.members:
                    if member in self.suspected:
                        continue
                    if now - self._last_beat[member] > self.lease_timeout:
                        self.suspected.add(member)
                        REGISTRY.count("faults.suspects")
                        if self.on_suspect is not None:
                            self.on_suspect(member)
        self._rearm()

    # -- the wake ------------------------------------------------------------------

    def _advance(self) -> None:
        """Pass the grid instants strictly before now: none is due (or the
        timer would be armed at it), so each is skipped."""
        s, step, now = self._at, self.check_interval, self.env.now
        nxt = s + step
        while nxt < now:
            s, nxt = nxt, nxt + step
        self._at = s

    def _rearm(self) -> None:
        """Arm the timer at :meth:`_due`'s instant (no timer if none is)."""
        if self._at is None:
            return
        self._advance()
        wake = self._due()
        if wake != self._wake:
            self._set_wake(wake)

    def _arm_for(self, member: str) -> None:
        """Arm earlier if ``member`` can fall due before the armed wake."""
        if self._at is None:
            return
        self._advance()
        wake = self._member_due(member, self._at + self.check_interval)
        if wake is not None and (self._wake is None or wake < self._wake):
            self._set_wake(wake)

    def _set_wake(self, at: Optional[float]) -> None:
        """Move the timer to instant ``at`` (None: no timer)."""
        if self._timer is not None:
            self._timer.callbacks.clear()
            self.env.cancel(self._timer)
        self._timer, self._wake = None, at
        if at is not None:
            timer = self._timer = bare_event(self.env, self._scan)
            self.env.schedule_at(timer, at)

    def _due(self) -> Optional[float]:
        """The first grid instant after the last one passed at which a scan
        can suspect, re-grant or clear a suspicion; None if none can until
        a re-arm trigger (watch, unwatch, an outage, a link window opening,
        a node failing or coming back).

        Every instant while the detector is (or was) suspended, a link
        window is open or the monitor's node is down; else the earliest
        instant over the members (:meth:`_member_due`).
        """
        first = self._at + self.check_interval
        if (
            self._was_suspended
            or self._window_end is not None
            or (self.suspend_when is not None and self.suspend_when())
            or (self.monitor is not None and self.monitor.endpoint.node.failed)
        ):
            return first
        wake = None
        for member in self._last_beat:
            due = self._member_due(member, first)
            if due == first:
                return first
            if due is not None and (wake is None or due < wake):
                wake = due
        return wake

    def _member_due(self, member: str, first: float) -> Optional[float]:
        """The first instant from ``first`` at which a scan can act on
        ``member``, or None.

        A beat-only member can only be suspected, at the first instant more
        than ``lease_timeout`` after its last beat (a suspected one waits
        for :meth:`beat`).  A grid lease needs every instant while its node
        is down (each scan then passes beats the crash lost, which a lazy
        credit after a restore would count), it holds uncredited real
        beats, it is suspected (a credit clears that), an outage may still
        hide one of its beats, or it is stale: its next beat falls more than
        ``lease_timeout`` after the last one heard, or its interval leaves
        less than one grid step of slack under the timeout.  Otherwise its
        next beat is always heard in time and no scan can suspect it.
        """
        last, timeout = self._last_beat[member], self.lease_timeout
        lease = self._grid.get(member)
        if lease is None:
            if member in self.suspected:
                return None
            s = first
            while s - last <= timeout:
                s += self.check_interval
            return s
        due = lease.due(lease.next_k)
        if (
            lease.node.failed
            or lease.sent
            or member in self.suspected
            or due - last > timeout
            or lease.interval + self.check_interval > timeout
            or any(end > due for _, end in self._outages)
        ):
            return first
        return None


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
        self.endpoint.handle(self._on_heartbeat, MessageType.HEARTBEAT)

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
        self.endpoint.handle(None, MessageType.HEARTBEAT)
        self.messenger.unregister(self.endpoint.name)

    def _on_heartbeat(self, msg: Message) -> None:
        self.detector.beat(msg.payload["member"])
