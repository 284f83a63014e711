"""The managers' receive loops for one-way messages, frozen for
differential testing.

Before an endpoint handed one-way messages to a handler at delivery
(:meth:`~repro.evpath.endpoint.Endpoint.handle`), three managers ran a
process that only waited on their inbox and passed each message on:

* the global manager's ``gm-recv`` loop: ``METRIC_REPORT`` ->
  ``ingest_report``;
* the recovery manager's ``gm-recovery`` loop: ``REPLICA_SUSPECT`` -> a
  ``_replace_replica`` process;
* the heartbeat monitor's ``hb-monitor`` loop: ``HEARTBEAT`` ->
  ``detector.beat``.

Each message was put into the inbox, taken by the loop's receive and
handled two events later in the same instant.  The loops, the
constructors that started them and the ``stop`` methods that interrupted
them are kept here verbatim.  Each takes the live object as ``self``, so
:data:`PATCHES` can put them back onto
:class:`~repro.containers.global_manager.GlobalManager`,
:class:`~repro.containers.recovery.RecoveryManager` and
:class:`~repro.faults.detect.HeartbeatMonitor`; the constructors register
no handler, so every message goes to the inbox.  Running a preset or a DST
scenario both ways and comparing reports, histories, actions,
replacements, suspicions, telemetry, fates and the final clock pins the
delivery handlers to these semantics.

``tests/test_global_manager_ops.py::TestHandlersAtDelivery`` drives it;
nothing in production calls it.  Do not modify this file when changing the
managers — it is the baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import networkx as nx

from repro.cluster.node import Node
from repro.cluster.scheduler import BatchScheduler
from repro.containers.global_manager import GlobalManager
from repro.containers.local_manager import GLOBAL_MANAGER_ENDPOINT, LocalManager
from repro.containers.policy import LatencyPolicy, ManagementPolicy
from repro.containers.recovery import NoRecovery, RecoveryManager
from repro.controlplane import ControlPlaneEngine
from repro.evpath.channel import Messenger
from repro.evpath.messages import MessageType
from repro.fate import FateLedger
from repro.faults.detect import FailureDetector, HeartbeatMonitor
from repro.monitoring.metrics import Telemetry
from repro.simkernel import Environment, Interrupt
from repro.simkernel.resources import Resource


# -- GlobalManager ---------------------------------------------------------------------


def gm_init(
    self,
    env: Environment,
    messenger: Messenger,
    node: Node,
    scheduler: BatchScheduler,
    sla_interval: float,
    policy: Optional[ManagementPolicy] = None,
    telemetry: Optional[Telemetry] = None,
    control_interval: float = 30.0,
    engine: Optional[ControlPlaneEngine] = None,
    fates: Optional[FateLedger] = None,
):
    self.env = env
    self.messenger = messenger
    self.node = node
    self.scheduler = scheduler
    self.sla_interval = sla_interval
    self.policy = policy or LatencyPolicy()
    self.engine = engine or ControlPlaneEngine(env)
    self.telemetry = telemetry or Telemetry()
    self.control_interval = control_interval

    self.endpoint = messenger.endpoint(node, GLOBAL_MANAGER_ENDPOINT)
    self.locals: Dict[str, LocalManager] = {}
    #: upstream -> downstream dependency edges (the "configuration file")
    self.dependencies = nx.DiGraph()
    self._reports: Dict[str, dict] = {}
    self._occupancy_hist: Dict[str, List] = {}
    self._queue_hist: Dict[str, List] = {}
    self.actions_taken: List[str] = []
    #: serializes policy actions against crash-recovery protocols so a
    #: REPLACE never interleaves with a resize of the same container
    self.control_lock = Resource(env, capacity=1)
    #: the RecoveryManager under fault tolerance, else a NoRecovery
    self.recovery = NoRecovery()
    #: the pipeline's fate ledger (a private one when standalone)
    self.fates = fates if fates is not None else FateLedger()
    #: fleet identity: multi-tenant runs shard one GM per tenant and
    #: route spare-pool traffic through the shared FleetArbiter
    self.tenant = "default"
    self.arbiter = None
    self._recv_proc = env.process(self._recv_loop(), name="gm-recv")
    self._control_proc = env.process(self._control_loop(), name="gm-control")
    self._stopped = False


def gm_recv_loop(self):
    while True:
        try:
            msg = yield self.endpoint.recv(MessageType.METRIC_REPORT)
        except Interrupt:
            return
        self.ingest_report(msg.payload)


def gm_stop(self) -> None:
    self._stopped = True
    self.recovery.stop()
    for proc in (self._recv_proc, self._control_proc):
        if proc.is_alive:
            proc.interrupt("stop")
    for manager in self.locals.values():
        manager.stop()


# -- RecoveryManager -------------------------------------------------------------------


def rm_init(
    self,
    env: Environment,
    messenger: Messenger,
    global_manager: "GlobalManager",
    manager_lease_timeout: float,
):
    self.env = env
    self.messenger = messenger
    self.gm = global_manager
    #: completed recovery actions, in order
    self.replacements: List[dict] = []
    #: failover hook: called with the container name after a REPLACE
    #: commits (the replay-after-recovery trigger)
    self.on_replace_complete = lambda name: None
    #: containers degraded to offline because recovery was impossible
    self.degraded: List[str] = []
    #: protocol rounds spent on recovery (replace, steal, degrade)
    self.rounds = 0
    #: suspicions refused because the replica turned out alive
    self.refused = 0

    self.manager_detector = FailureDetector(
        env,
        "gm-managers",
        manager_lease_timeout,
        on_suspect=self._on_manager_suspect,
        suspend_when=lambda: self.gm.node.failed,
    )
    for name in self.gm.locals:
        self.manager_detector.watch(name)
    self.manager_detector.start()

    self.gm.recovery = self
    self._proc = env.process(self._run(), name="gm-recovery")


def rm_run(self):
    while True:
        try:
            msg = yield self.gm.endpoint.recv(MessageType.REPLICA_SUSPECT)
        except Interrupt:
            return
        self.env.process(
            self._replace_replica(dict(msg.payload)),
            name=f"replace:{msg.payload.get('replica')}",
        )


def rm_stop(self) -> None:
    self.manager_detector.stop()
    if self._proc is not None and self._proc.is_alive:
        self._proc.interrupt("stop")
    self._proc = None


# -- HeartbeatMonitor ------------------------------------------------------------------


def hb_init(
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


def hb_stop(self) -> None:
    if self._proc is not None and self._proc.is_alive:
        self._proc.interrupt("stop")
    self._proc = None
    self.messenger.unregister(self.endpoint.name)


def hb_recv_loop(self):
    while True:
        try:
            msg = yield self.endpoint.recv(MessageType.HEARTBEAT)
        except Interrupt:
            return
        self.detector.beat(msg.payload["member"])


#: ``(class, attribute, function)`` for the three managers.
PATCHES = (
    (GlobalManager, "__init__", gm_init),
    (GlobalManager, "_recv_loop", gm_recv_loop),
    (GlobalManager, "stop", gm_stop),
    (RecoveryManager, "__init__", rm_init),
    (RecoveryManager, "_run", rm_run),
    (RecoveryManager, "stop", rm_stop),
    (HeartbeatMonitor, "__init__", hb_init),
    (HeartbeatMonitor, "_recv_loop", hb_recv_loop),
    (HeartbeatMonitor, "stop", hb_stop),
)
