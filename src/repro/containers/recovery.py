"""Crash recovery: the REPLACE protocol and graceful degradation.

The :class:`RecoveryManager` sits beside the global manager and turns
failure *suspicion* into repaired capacity:

* **replica level** — local managers raise REPLICA_SUSPECT when a replica's
  heartbeat lease lapses (:mod:`repro.faults.detect`).  Recovery convicts
  the suspect against the node-health view, acquires a replacement node
  (spare pool first, stealing per the existing headroom policy when the
  pool is empty), and runs a REPLACE round with the local manager — which
  respawns the replica, re-runs state migration for stateful components,
  re-registers the DataTap reader endpoints, and redelivers unacked chunks
  from upstream custody.

* **manager level** — local-manager liveness rides the existing monitoring
  path: every METRIC_REPORT doubles as that manager's heartbeat.  A silent
  manager whose node really died is *rehosted* onto a surviving replica
  node (or the global manager's node), after which its own replica detector
  resumes and surfaces the co-hosted replica crash through the normal path.

* **degradation** — when no replacement node can be found, or the local
  manager is unreachable, the container goes offline through the existing
  Figure 9 path: buffered chunks flush to disk with provenance and future
  upstream output falls back to ADIOS files, so data is preserved even when
  capacity is not.

MTTR (suspicion to recovery-complete) lands in the shared perf registry as
a simulated-time duration, next to the protocol counters.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.simkernel import Environment, Interrupt
from repro.simkernel.errors import FaultError
from repro.cluster.scheduler import container_owner
from repro.controlplane import ProtocolAbort, ProtocolExit, protocols
from repro.evpath.channel import Messenger, RequestTimeout
from repro.evpath.messages import Message, MessageType
from repro.faults.detect import FailureDetector
from repro.perf.registry import REGISTRY

if TYPE_CHECKING:
    from repro.containers.global_manager import GlobalManager

#: seconds the REPLACE round waits for the local manager's reply before it
#: counts the manager unreachable
REPLACE_TIMEOUT = 60.0


class NoRecovery:
    """Fault tolerance off: reports beat no lease and nothing is replaced."""

    replacements = ()

    def note_report(self, container: str) -> None:
        pass

    def stop(self) -> None:
        pass


class RecoveryManager:
    """Consumes failure suspicions and drives the recovery protocols."""

    def __init__(
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

    # -- liveness feed ---------------------------------------------------------------

    def note_report(self, container: str) -> None:
        """A metric report arrived: beat the manager-level lease."""
        if container not in self.manager_detector:
            self.manager_detector.watch(container)
        self.manager_detector.beat(container)

    # -- suspicion intake --------------------------------------------------------------

    def _run(self):
        while True:
            try:
                msg = yield self.gm.endpoint.recv(MessageType.REPLICA_SUSPECT)
            except Interrupt:
                return
            self.env.process(
                self._replace_replica(dict(msg.payload)),
                name=f"replace:{msg.payload.get('replica')}",
            )

    def _on_manager_suspect(self, name: str) -> None:
        self.env.process(self._recover_manager(name), name=f"rehost:{name}")

    # -- replica recovery --------------------------------------------------------------

    def _replace_replica(self, payload: dict):
        gm = self.gm
        name = payload["container"]
        manager = gm.locals.get(name)
        if manager is None:
            return
        container = manager.container
        dead = next(
            (r for r in container.replicas if r.name == payload["replica"]), None
        )
        if dead is None:
            return  # already replaced (duplicate suspicion)
        if not dead.crashed and not dead.node.failed:
            # Convict against the node-health oracle: a live replica that
            # merely went quiet (slow link, degradation window) is left
            # alone — its next heartbeat clears the suspicion upstream.
            self.refused += 1
            REGISTRY.count("faults.replace_refused")
            return
        suspected_at = payload.get("suspected_at", self.env.now)
        request = gm.control_lock.request()
        yield request
        try:
            yield gm.engine.execute(
                protocols.GM_REPLACE,
                subject=name,
                data={
                    "rm": self,
                    "gm": gm,
                    "name": name,
                    "manager": manager,
                    "dead": dead,
                    "payload": payload,
                    "suspected_at": suspected_at,
                },
            )
        finally:
            gm.control_lock.release(request)

    # GM_REPLACE round bodies ----------------------------------------------------------

    def _rr_recheck(self, ctx) -> None:
        """A concurrent repair may have removed the suspect already."""
        manager = ctx["manager"]
        if ctx["dead"] not in manager.container.replicas:
            raise ProtocolExit()

    def _rr_acquire(self, ctx):
        """Find a replacement node: spare pool first, then steal."""
        gm = self.gm
        name = ctx["name"]
        node = None
        method = None
        if gm.scheduler.free_nodes > 0:
            (node,) = gm.scheduler.allocate(1, ctx.trace)
            method = "spare"
        else:
            donor = self._pick_donor(name)
            if donor is not None:
                self.rounds += 1
                freed = yield gm.decrease(donor, 1, to=ctx.trace)
                freed = [n for n in freed if not n.failed]
                if freed:
                    node = freed[0]
                    method = f"steal:{donor}"
        if node is None:
            raise ProtocolAbort("no replacement node")
        ctx["node"] = node
        ctx["method"] = method

    def _rr_return_node(self, ctx) -> None:
        """Compensation: an acquired-but-unused node rejoins the pool."""
        self.gm.scheduler.restock([ctx["node"]], ctx.trace)

    def _rr_request(self, ctx):
        """Run the REPLACE round against the local manager."""
        gm = self.gm
        self.rounds += 1
        replace = Message(
            MessageType.REPLACE_REQUEST,
            sender="global-mgr",
            payload={"replica": ctx["payload"]["replica"], "node": ctx["node"]},
        )
        try:
            reply = yield self.messenger.request(
                gm.node, gm.endpoint, ctx["manager"].endpoint.name, replace,
                timeout=REPLACE_TIMEOUT,
            )
        except (RequestTimeout, FaultError):
            # The local manager is unreachable (its node probably died
            # too).  The acquire round's compensation gives the node back;
            # a manager rehost may later revive the container.
            raise ProtocolAbort("manager unreachable")
        gm.scheduler.move([ctx["node"]], container_owner(ctx["name"]), ctx.trace)
        ctx["reply"] = reply

    def _rr_commit(self, ctx) -> None:
        gm = self.gm
        name = ctx["name"]
        method = ctx["method"]
        replica = ctx["payload"]["replica"]
        mttr = self.env.now - ctx["suspected_at"]
        REGISTRY.record_duration("faults.mttr_detected", mttr)
        REGISTRY.count("faults.replacements")
        self.replacements.append(
            {
                "type": "replace",
                "container": name,
                "replica": replica,
                "node_id": ctx["node"].node_id,
                "method": method,
                "suspected_at": ctx["suspected_at"],
                "completed_at": self.env.now,
                "redelivered": ctx["reply"].payload.get("redelivered", 0),
            }
        )
        gm.actions_taken.append(f"replace {name}/{replica} via {method}")
        gm.telemetry.mark(self.env.now, f"replace {name} via {method}")
        # Failover hook: a completed replacement means the consumer is back,
        # so spilled history (if any) can be replayed to it.
        self.on_replace_complete(name)

    def _rr_degrade(self, ctx):
        """Abort hook: no repair possible — Figure 9 disk fallback."""
        yield from self._degrade(ctx["name"], ctx.abort.reason)

    def _pick_donor(self, exclude: str) -> Optional[str]:
        """Donor with the most headroom, per the existing steal policy."""
        best, best_headroom = None, 0
        for name, manager in sorted(self.gm.locals.items()):
            container = manager.container
            if name == exclude or container.offline or not container.active:
                continue
            if container.units <= 1:
                continue
            headroom = manager.headroom(self.gm.sla_interval)
            if headroom > best_headroom:
                best, best_headroom = name, headroom
        return best

    def _degrade(self, name: str, reason: str):
        """Offline + disk fallback (the Fig 9 path) when recovery cannot."""
        self.rounds += 1
        REGISTRY.count("faults.degraded")
        yield self.gm.take_offline(name)
        self.degraded.append(name)
        self.gm.actions_taken.append(f"replace {name} degraded to offline ({reason})")
        self.replacements.append(
            {
                "type": "degrade",
                "container": name,
                "reason": reason,
                "completed_at": self.env.now,
            }
        )

    # -- manager recovery --------------------------------------------------------------

    def _recover_manager(self, name: str):
        gm = self.gm
        manager = gm.locals.get(name)
        if manager is None:
            return
        if not manager.node.failed:
            # Reports merely delayed; the next one clears the suspicion and
            # counts the false positive at the detector.
            return
        request = gm.control_lock.request()
        yield request
        try:
            if not manager.node.failed:
                return
            container = manager.container
            survivors = [
                r for r in container.replicas
                if not r.crashed and not r.node.failed
            ]
            new_node = survivors[0].node if survivors else gm.node
            manager.rehost(new_node)
            self.rounds += 1
            REGISTRY.count("faults.manager_rehosts")
            self.replacements.append(
                {
                    "type": "manager_rehost",
                    "container": name,
                    "node_id": new_node.node_id,
                    "completed_at": self.env.now,
                }
            )
            gm.actions_taken.append(f"rehost manager {name}")
            gm.telemetry.mark(self.env.now, f"rehost manager {name}")
            # The crashed co-hosted replicas surface through the replica
            # detector once it resumes scanning from the new host.
        finally:
            gm.control_lock.release(request)

    def stop(self) -> None:
        self.manager_detector.stop()
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        self._proc = None
