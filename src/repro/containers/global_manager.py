"""The global manager: pipeline-wide properties and control.

Maintains the dependency configuration, receives metric reports from the
local managers, runs the management policy on a control period, and executes
the resulting actions as message protocols against the local managers.
A resource trade can instead run as a D2T control transaction
(:meth:`repro.transactions.TransactionManager.run_trade`, the resilient
path evaluated in Figure 6), which guarantees that a node removed from a
donor is either delivered to the recipient or returned.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import networkx as nx

from repro.simkernel import Environment, Interrupt
from repro.simkernel.errors import SimulationError
from repro.simkernel.resources import Resource
from repro.cluster.node import Node
from repro.cluster.scheduler import FREE, BatchScheduler, container_owner
from repro.containers.local_manager import GLOBAL_MANAGER_ENDPOINT, LocalManager
from repro.containers.recovery import NoRecovery
from repro.containers.policy import (
    ContainerState,
    Increase,
    LatencyPolicy,
    ManagementPolicy,
    Offline,
    Steal,
)
from repro.controlplane import ControlPlaneEngine, ProtocolAbort, protocols
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.fate import SHED, FateLedger
from repro.monitoring.metrics import LatencyWindow, Telemetry

#: seconds ahead the policy projects buffer occupancy when it decides an
#: overflow (the ``horizon`` of :meth:`ManagementPolicy.decide`): ten
#: 15 s output intervals
OVERFLOW_HORIZON = 150.0


class GlobalManager:
    """Hierarchy root: one per pipeline."""

    def __init__(
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

    # -- registration ------------------------------------------------------------------

    def register(self, manager: LocalManager, depends_on: Optional[str] = None) -> None:
        name = manager.container.name
        if name in self.locals:
            raise SimulationError(f"container {name!r} already registered")
        self.locals[name] = manager
        self.dependencies.add_node(name)
        if depends_on is not None:
            if depends_on not in self.locals:
                raise SimulationError(f"unknown upstream container {depends_on!r}")
            self.dependencies.add_edge(depends_on, name)

    def dependents_of(self, name: str) -> List[str]:
        """All containers downstream of ``name`` (must go offline with it),
        in registration order: the offline cascade flushes in this order,
        so it must not follow set iteration (the interpreter's hash seed)."""
        below = nx.descendants(self.dependencies, name)
        return [c for c in self.locals if c in below]

    def upstream_of(self, name: str) -> List[str]:
        return list(self.dependencies.predecessors(name))

    # -- message handling ----------------------------------------------------------------

    def _recv_loop(self):
        while True:
            try:
                msg = yield self.endpoint.recv(MessageType.METRIC_REPORT)
            except Interrupt:
                return
            self.ingest_report(msg.payload)

    def ingest_report(self, report: dict) -> None:
        """Record one metric report (from a direct message or an overlay)."""
        name = report["container"]
        # Manager liveness rides the existing monitoring path: every report
        # doubles as that local manager's heartbeat.
        self.recovery.note_report(name)
        self._reports[name] = report
        occ = self._occupancy_hist.setdefault(name, [])
        occ.append((report["time"], report["buffer_occupancy"]))
        del occ[:-16]
        qh = self._queue_hist.setdefault(name, [])
        qh.append((report["time"], float(report["queued"])))
        del qh[:-16]

    # -- control loop ------------------------------------------------------------------------

    def snapshot(self) -> Dict[str, ContainerState]:
        states = {}
        for name, manager in self.locals.items():
            container = manager.container
            report = self._reports.get(name, {})
            states[name] = ContainerState(
                name=name,
                units=container.units,
                latency_mean=report.get("latency_mean"),
                latency_est=report.get("latency_est"),
                queued=report.get("queued", 0),
                queue_samples=tuple(self._queue_hist.get(name, ())),
                occupancy_samples=tuple(self._occupancy_hist.get(name, ())),
                buffer_occupancy=report.get("buffer_occupancy", 0.0),
                # Prefer the local manager's own sizing figures (it knows
                # its component's cost model); ask it directly only when
                # no report carries them yet.
                shortfall=(report["shortfall"] if "shortfall" in report
                           else manager.shortfall(self.sla_interval)),
                headroom=(report["headroom"] if "headroom" in report
                          else manager.headroom(self.sla_interval)),
                essential=container.essential,
                offline=container.offline,
                active=container.active,
                sla_factor=container.sla_factor,
            )
        return states

    def _control_loop(self):
        while True:
            try:
                yield self.env.timeout(self.control_interval)
            except Interrupt:
                return
            if self._stopped:
                return
            states = self.snapshot()
            actions = self.policy.decide(
                states,
                spare_nodes=self.spare_capacity(),
                sla_interval=self.sla_interval,
                now=self.env.now,
                horizon=OVERFLOW_HORIZON,
            )
            if not actions:
                continue
            request = self.control_lock.request()
            yield request
            try:
                for action in actions:
                    if isinstance(action, Increase):
                        yield self.increase(action.container, action.count)
                    elif isinstance(action, Steal):
                        yield self.steal(action.donor, action.recipient, action.count)
                    elif isinstance(action, Offline):
                        yield self.take_offline(action.container)
            except SimulationError as exc:
                # The capacity the policy saw can be claimed out from under
                # the protocol — in a fleet, another tenant's GM races this
                # one for the arbiter's spares.  A lost race is a transient:
                # log it and let the next control period re-decide.
                self.actions_taken.append(f"action failed: {exc}")
                self.telemetry.mark(self.env.now, f"control action failed: {exc}")
            finally:
                self.control_lock.release(request)

    # -- fleet spare pool ---------------------------------------------------------------------

    def spare_capacity(self) -> int:
        """Spare nodes reachable by this GM: the tenant scheduler's free
        pool plus whatever the fleet arbiter would grant us right now."""
        extra = 0
        if self.arbiter is not None:
            extra = self.arbiter.available_to(self.tenant)
        return self.scheduler.free_nodes + extra

    def _borrow(self, count: int) -> int:
        """Top up the tenant free pool from the arbiter to cover ``count``.

        Synchronous (the arbiter is in-memory state, like the scheduler),
        so it is safe inside sync protocol rounds.  Returns the number of
        nodes actually granted; the grant may fall short of the shortfall
        when quota or spares run out.
        """
        if self.arbiter is None:
            return 0
        shortfall = count - self.scheduler.free_nodes
        if shortfall <= 0:
            return 0
        granted = self.arbiter.request(self.tenant, shortfall)
        return len(granted)

    def _return_borrowed(self, nodes: List[Node]) -> int:
        """Route any *borrowed* (and free) nodes back to the arbiter.

        Abort paths call this after restocking the tenant free list: loaned
        capacity must land back in the shared spare pool, not linger as a
        tenant-held spare the quota audit would flag.
        """
        if self.arbiter is None:
            return 0
        idle = self.scheduler.free_borrowed()
        loaned = [n for n in nodes if n in idle]
        if loaned:
            self.arbiter.give_back(self.tenant, loaned)
        return len(loaned)

    # -- operations ---------------------------------------------------------------------------

    def increase(self, name: str, count: int, nodes: Optional[List[Node]] = None,
                 holder=FREE):
        """Process: grow ``name`` by ``count`` nodes, from spares or the
        given ``nodes``, which ``holder`` owns (the caller's protocol run
        for a trade, else the free pool)."""
        return self.engine.execute(
            protocols.GM_INCREASE, subject=name,
            data={"gm": self, "manager": self._manager(name), "name": name,
                  "count": count, "nodes": nodes, "holder": holder},
        )

    def _gmi_allocate(self, ctx) -> None:
        # The protocol run holds the nodes until the increase is answered.
        if ctx["nodes"] is not None:
            self.scheduler.move(ctx["nodes"], ctx.trace, ctx["holder"])
            return
        name, count = ctx["name"], ctx["count"]
        if count > self.scheduler.free_nodes:
            self._borrow(count)
        if count > self.scheduler.free_nodes:
            raise SimulationError(
                f"increase {name!r} by {count}: only {self.scheduler.free_nodes} spare"
            )
        ctx["nodes"] = self.scheduler.allocate(count, ctx.trace)

    def _gmi_validate(self, ctx) -> None:
        # A target node died mid-protocol (e.g. between the donor's
        # decrease and this increase): abort, quarantine the dead nodes,
        # and return the survivors to the spare pool rather than handing
        # a dead node to the recipient.
        dead = [n for n in ctx["nodes"] if n.failed]
        if dead:
            raise ProtocolAbort(f"{len(dead)} target nodes dead")

    def _gmi_abort(self, ctx):
        name, nodes = ctx["name"], ctx["nodes"]
        self.scheduler.restock(nodes, ctx.trace)
        dead = [n for n in nodes if n.failed]
        alive = [n for n in nodes if not n.failed]
        # Loaned capacity goes back to the fleet arbiter, not this tenant's
        # spare pool — an aborted grow must not convert a loan into a hold.
        self._return_borrowed(alive)
        self.actions_taken.append(
            f"increase {name} aborted ({len(dead)} target nodes dead)"
        )
        yield self.env.timeout(0)
        ctx.result = {"aborted": True, "units": ctx["manager"].container.units,
                      "returned": len(alive)}

    def _gmi_request(self, ctx):
        name, nodes = ctx["name"], ctx["nodes"]
        request = Message(
            MessageType.INCREASE_REQUEST,
            sender="global-mgr",
            payload={"nodes": nodes},
        )
        reply = yield self.messenger.request(
            self.node, self.endpoint, ctx["manager"].endpoint.name, request
        )
        self.scheduler.move(nodes, container_owner(name), ctx.trace)
        self.actions_taken.append(f"increase {name} +{len(nodes)}")
        ctx.result = reply.payload

    def decrease(self, name: str, count: int, to=FREE):
        """Process: shrink ``name`` by ``count`` nodes and hand them to
        ``to`` (the caller's protocol run for a trade, else the free pool);
        value is the freed nodes."""
        return self.env.process(self._decrease(name, count, to), name=f"gm-decr:{name}")

    def _decrease(self, name: str, count: int, to):
        manager = self._manager(name)
        request = Message(
            MessageType.DECREASE_REQUEST,
            sender="global-mgr",
            payload={"count": count, "to": to},
        )
        reply = yield self.messenger.request(
            self.node, self.endpoint, manager.endpoint.name, request
        )
        self.actions_taken.append(f"decrease {name} -{count}")
        return reply.payload["nodes"]

    def steal(self, donor: str, recipient: str, count: int):
        """Process: move ``count`` nodes donor -> recipient.

        If the freed nodes die mid-trade the ``gm_steal`` protocol aborts
        and they return to the spare pool rather than being lost (the
        consistency guarantee of Section III-A item 5);
        :meth:`repro.transactions.TransactionManager.run_trade` runs the
        same trade as a D2T control transaction.
        """
        return self.engine.execute(
            protocols.GM_STEAL, subject=f"{donor}->{recipient}",
            data={"gm": self, "donor": donor, "recipient": recipient,
                  "count": count, "freed": []},
        )

    def _gms_decrease(self, ctx):
        ctx["freed"] = yield self.decrease(ctx["donor"], ctx["count"], to=ctx.trace)

    def _gms_validate(self, ctx) -> None:
        # The mid-protocol crash case: the trade aborts and the freed
        # nodes return to the spare pool rather than being lost.
        if any(n.failed for n in ctx["freed"]):
            raise ProtocolAbort("freed nodes died mid-trade", result=[])

    def _gms_abort(self, ctx) -> None:
        freed = ctx["freed"]
        self.scheduler.restock(freed, ctx.trace)
        self._return_borrowed([n for n in freed if not n.failed])
        alive = sum(1 for n in freed if not n.failed)
        self.actions_taken.append(
            f"steal {ctx['donor']}->{ctx['recipient']} aborted; "
            f"{alive} freed nodes returned to spare pool"
        )
        ctx.result = []

    def _gms_increase(self, ctx):
        freed = ctx["freed"]
        yield self.increase(ctx["recipient"], len(freed), nodes=freed,
                            holder=ctx.trace)

    def _gms_commit(self, ctx) -> None:
        freed = ctx["freed"]
        self.actions_taken.append(
            f"steal {ctx['donor']}->{ctx['recipient']} x{len(freed)}"
        )
        ctx.result = freed

    def take_offline(self, name: str):
        """Process: offline ``name`` and every downstream dependent.

        After the affected containers are down, their upstream (still
        online) containers flush buffered chunks to disk and future output
        goes to the file system with provenance attributes.
        """
        return self.env.process(self._take_offline(name), name=f"gm-offline:{name}")

    def _take_offline(self, name: str):
        affected = [name] + self.dependents_of(name)
        # Downstream-last order so each teardown strands as little as possible.
        order = [c for c in nx.topological_sort(self.dependencies) if c in affected]
        for cname in reversed(order):
            manager = self._manager(cname)
            if manager.container.offline:
                continue
            request = Message(
                MessageType.OFFLINE_REQUEST, sender="global-mgr", payload={}
            )
            yield self.messenger.request(
                self.node, self.endpoint, manager.endpoint.name, request
            )
            self.actions_taken.append(f"offline {cname}")
        # Flush: chunks buffered in the writers feeding each pruned stage
        # will never be pulled.  (This covers both the live upstream's
        # writers — e.g. Helper's when Bonds goes down — and the pruned
        # stages' own inter-stage writers.)
        for cname in affected:
            pruned = self._manager(cname).container
            if pruned.input_link is not None:
                yield from self._flush_input(pruned)
        self.telemetry.mark(self.env.now, f"offline cascade from {name}")
        return affected

    def _flush_input(self, container):
        """Drain the writers feeding ``container`` as offline-prune sheds.

        Only a chunk the ledger answers ``shed`` for is stranded to disk
        with its provenance: a delivered timestep needs no strand (and a
        post-processor would re-run one), and a spilled one is already
        durable in the spill store.
        """
        for writer in list(container.input_link.writers):
            for chunk in writer.drain_buffer():
                fate = self.fates.shed(
                    chunk.timestep, container.name, "offline_prune",
                    self.env.now, chunk_id=chunk.chunk_id,
                )
                if fate == SHED and container.sink_fs is not None:
                    yield container.sink_fs.write_chunk(
                        writer.node, f"{writer.name}.flush", chunk,
                        incomplete_pipeline=True,
                    )

    def set_stride(self, name: str, stride: int):
        """Process: ask a container to process only every ``stride``-th
        timestep; value is True when the local manager accepted."""
        return self.env.process(self._set_stride(name, stride), name=f"gm-stride:{name}")

    def _set_stride(self, name: str, stride: int):
        manager = self._manager(name)
        request = Message(
            MessageType.SET_STRIDE, sender="global-mgr", payload={"stride": stride}
        )
        reply = yield self.messenger.request(
            self.node, self.endpoint, manager.endpoint.name, request
        )
        accepted = reply.mtype is MessageType.ACK
        if accepted:
            self.actions_taken.append(f"stride {name} 1/{stride}")
        return accepted

    def set_hashing(self, name: str, enabled: bool = True):
        """Process: toggle output hashing (soft-error detection) on ``name``."""
        return self.env.process(self._set_hashing(name, enabled), name=f"gm-hash:{name}")

    def _set_hashing(self, name: str, enabled: bool):
        manager = self._manager(name)
        request = Message(
            MessageType.SET_HASHING, sender="global-mgr", payload={"enabled": enabled}
        )
        reply = yield self.messenger.request(
            self.node, self.endpoint, manager.endpoint.name, request
        )
        self.actions_taken.append(f"hashing {name} {'on' if enabled else 'off'}")
        return reply.mtype is MessageType.ACK

    def activate(self, name: str, units: Optional[int] = None, holder=None):
        """Process: bring a standby container online (the dynamic branch),
        or re-activate an offline one (the brownout ladder's de-escalation).

        Used when CSym detects a broken bond: CNA "start[s] reading data
        from Bonds".  The standby container already holds nodes; activation
        spawns its replicas and wires them into the upstream link.  For an
        *offline* container ``units`` sizes the rebuild (capped by the
        spare pool; defaults to 1), and ``holder``, the caller's protocol
        run, holds the spare nodes it takes until the increase is answered.
        """
        return self.env.process(self._activate(name, units, holder),
                                name=f"gm-activate:{name}")

    def _activate(self, name: str, units: Optional[int], holder):
        manager = self._manager(name)
        container = manager.container
        if container.offline:
            result = yield from self._reactivate(manager, units, holder)
            return result
        if container.active:
            yield self.env.timeout(0)
            return container.units
        container.active = True
        request = Message(
            MessageType.INCREASE_REQUEST, sender="global-mgr",
            payload={"nodes": container.standby_nodes},
        )
        reply = yield self.messenger.request(
            self.node, self.endpoint, manager.endpoint.name, request
        )
        self.actions_taken.append(f"activate {name}")
        return reply.payload["units"]

    def _reactivate(self, manager: LocalManager, units: Optional[int], holder):
        """Rebuild a pruned container from the spare pool.

        The reverse of the offline cascade: flush (as accounted sheds)
        whatever piled up in the still-paused upstream writers while the
        stage was down, respawn replicas through the regular INCREASE
        protocol, reinstall the link's credit window, and only then resume
        the writers — so the first post-recovery dispatch is always
        credit-gated against the fresh window, never the stale one.
        """
        container = manager.container
        name = container.name
        if holder is None:
            raise SimulationError(f"reactivating {name!r} needs the calling protocol run")
        container.offline = False
        if container.input_link is not None:
            yield from self._flush_input(container)
        wanted = units if units else 1
        if wanted > self.scheduler.free_nodes:
            self._borrow(wanted)
        count = min(wanted, self.scheduler.free_nodes)
        if count <= 0:
            container.offline = True
            return 0
        nodes = self.scheduler.allocate(count, holder)
        request = Message(
            MessageType.INCREASE_REQUEST, sender="global-mgr",
            payload={"nodes": nodes},
        )
        reply = yield self.messenger.request(
            self.node, self.endpoint, manager.endpoint.name, request
        )
        self.scheduler.move(nodes, container_owner(name), holder)
        if container.input_link is not None:
            # Reinstall the credit window *before* the writers resume: the
            # stale window described a downstream that no longer exists,
            # and resuming first would let the first post-recovery dispatch
            # go out creditless (or be deferred against credits still held
            # by pruned chunks).
            container.input_link.credits.reset()
            yield container.input_link.resume_writers()
        # Fresh latency state: the stale pre-offline window must not trip
        # an immediate re-escalation.
        container.latency = LatencyWindow(maxlen=8)
        self._reports.pop(name, None)
        self.actions_taken.append(f"reactivate {name} +{count}")
        self.telemetry.mark(self.env.now, f"reactivate {name}")
        return reply.payload["units"]

    def retire(self, name: str):
        """Process: permanently retire a container (e.g. CSym after the
        branch fires), returning its nodes to the spare pool."""
        return self.env.process(self._take_offline_single(name), name=f"gm-retire:{name}")

    def _take_offline_single(self, name: str):
        manager = self._manager(name)
        request = Message(MessageType.OFFLINE_REQUEST, sender="global-mgr", payload={})
        reply = yield self.messenger.request(
            self.node, self.endpoint, manager.endpoint.name, request
        )
        self.actions_taken.append(f"retire {name}")
        return reply.payload["nodes"]

    # -- helpers --------------------------------------------------------------------------------

    def _manager(self, name: str) -> LocalManager:
        try:
            return self.locals[name]
        except KeyError:
            raise SimulationError(f"unknown container {name!r}") from None

    def stop(self) -> None:
        self._stopped = True
        self.recovery.stop()
        for proc in (self._recv_proc, self._control_proc):
            if proc.is_alive:
                proc.interrupt("stop")
        for manager in self.locals.values():
            manager.stop()
