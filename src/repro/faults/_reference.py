"""The per-replica heartbeat process, frozen for differential testing.

:class:`HeartbeatSender` is the process every watched replica ran before
:class:`~repro.faults.detect.FailureDetector` began crediting lease beats
arithmetically: wake every ``interval``, skip the beat while the member's
node is down, otherwise send a HEARTBEAT to the monitor endpoint.  Driving
the same watch/crash/rehost schedule through it (plus a
:class:`~repro.faults.detect.HeartbeatMonitor`) and through the lease grid
pins the grid to these exact suspicion semantics.

Tests drive it; nothing in production calls it.  Do not modify this file
when optimizing detection — it is the baseline.
"""

from __future__ import annotations

from repro.simkernel import Environment, Interrupt
from repro.cluster.node import Node
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.perf.registry import REGISTRY


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
