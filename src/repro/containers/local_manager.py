"""Per-container (local) managers.

The local manager is the only entity that understands its component: its
compute model, speedup behaviour (from the pre-supplied cost model, as the
paper allows), and how to execute resizes against the running replicas.  It
answers the global manager's control requests, runs the monitoring loop that
feeds metric reports upward, and carries out the protocol rounds measured in
Figures 4 and 5.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.simkernel import Environment, Interrupt
from repro.simkernel.errors import FaultError
from repro.cluster.node import Node
from repro.cluster.scheduler import BatchScheduler, container_owner
from repro.containers.container import Container
from repro.controlplane import ControlPlaneEngine, ProtocolAbort, protocols
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.fate import SHED
from repro.faults.detect import FailureDetector, HeartbeatMonitor
from repro.monitoring.metrics import Telemetry
from repro.smartpointer.costs import ComputeModel

#: EVPath connection-establishment cost charged per (new replica, peer)
#: pair during the intra-container metadata exchange of an increase.
CONNECTION_SETUP_SECONDS = 5e-3

#: the global manager's endpoint name, where reports and suspicions go
GLOBAL_MANAGER_ENDPOINT = "global-mgr"

#: replica liveness under fault tolerance: a replica beats every
#: HEARTBEAT_INTERVAL seconds and is suspected after LEASE_TIMEOUT seconds
#: of silence (five missed beats)
HEARTBEAT_INTERVAL = 1.0
LEASE_TIMEOUT = 5.0


class LocalManager:
    """Owns one container; executes control requests and reports metrics."""

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        container: Container,
        node: Node,
        scheduler: BatchScheduler,
        telemetry: Optional[Telemetry] = None,
        monitor_interval: float = 15.0,
        sla_interval: Optional[float] = None,
        engine: Optional[ControlPlaneEngine] = None,
    ):
        self.env = env
        self.messenger = messenger
        self.container = container
        self.node = node
        self.scheduler = scheduler
        self.engine = engine or ControlPlaneEngine(env)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.monitor_interval = monitor_interval
        #: the SLA this manager sizes against; when set, metric reports
        #: carry the locally computed shortfall/headroom so the global
        #: manager need not understand the component's cost model (the
        #: paper's division of knowledge between the two manager levels)
        self.sla_interval = sla_interval
        #: units_to_sustain answers by (atoms, effective interval, model)
        self._sustain: Dict[Tuple[int, float, ComputeModel], int] = {}

        self.endpoint = messenger.endpoint(node, f"{container.name}.cmgr")
        #: override to reroute metric reports (e.g. through a monitoring
        #: overlay instead of direct manager-to-manager messages)
        self.send_report = None
        #: replica failure detection (None until enable_fault_detection)
        self.detector: Optional[FailureDetector] = None
        self._hb_monitor: Optional[HeartbeatMonitor] = None
        self._control_proc = env.process(self._control_loop(), name=f"cmgr:{container.name}")
        self._monitor_proc = env.process(self._monitor_loop(), name=f"cmon:{container.name}")

    # -- introspection the global manager asks for ------------------------------------

    def units_to_sustain(self, interval: float) -> int:
        """Nodes this component needs to keep up with one chunk per ``interval``.

        A low-latency container (``sla_factor < 1``) is sized against the
        tightened interval — it must finish well before the next timestep.
        The cost model is a pure function of the key, so each answer is
        memoized for the life of this manager.
        """
        container = self.container
        key = (container.natoms_hint, interval * container.sla_factor, container.model)
        needed = self._sustain.get(key)
        if needed is None:
            needed = self._sustain[key] = container.spec.cost.units_to_sustain(*key)
        return needed

    def headroom(self, interval: float) -> int:
        """Nodes this container could give up while still sustaining the rate."""
        if self.container.offline or not self.container.active:
            return 0
        needed = self.units_to_sustain(interval)
        return max(0, self.container.units - needed)

    def shortfall(self, interval: float) -> int:
        """Additional nodes needed to sustain the rate (0 when keeping up)."""
        if self.container.offline:
            return 0
        needed = self.units_to_sustain(interval)
        return max(0, needed - self.container.units)

    # -- failure detection --------------------------------------------------------------

    def enable_fault_detection(self) -> None:
        """Start lease-based detection of this container's replicas.

        Each replica holds a heartbeat lease at a dedicated monitor
        endpoint on the manager's node (so control protocols cannot
        head-of-line block liveness); the detector credits its beats
        arithmetically and a silent lease raises a REPLICA_SUSPECT to the
        global manager, which runs the REPLACE protocol.  Scanning suspends
        while the manager's own node is down — the outage must not convict
        every replica — and resumes with fresh leases after a rehost.
        """
        if self.detector is not None:
            return
        self.detector = FailureDetector(
            self.env,
            f"{self.container.name}-fd",
            LEASE_TIMEOUT,
            on_suspect=self._on_replica_suspect,
            suspend_when=lambda: self.node.failed,
        )
        self._hb_monitor = HeartbeatMonitor(
            self.env, self.messenger, f"{self.container.name}-hb",
            self.node, self.detector,
        )
        for replica in self.container.replicas:
            self.watch_replica(replica)
        self.detector.start()

    def watch_replica(self, replica) -> None:
        """Grant a heartbeat lease to one replica."""
        if self.detector is None or replica.name in self.detector:
            return
        self.detector.watch(replica.name, replica.node, HEARTBEAT_INTERVAL)

    def unwatch_replica(self, name: str) -> None:
        if self.detector is not None:
            self.detector.unwatch(name)

    def _unwatch_departed(self) -> None:
        """Drop the lease of every watched replica that left the container."""
        if self.detector is None:
            return
        live = {r.name for r in self.container.replicas}
        for name in self.detector.members:
            if name not in live:
                self.detector.unwatch(name)

    def _on_replica_suspect(self, member: str) -> None:
        self.env.process(self._send_suspect(member), name=f"suspect:{member}")

    def _send_suspect(self, member: str):
        message = Message(
            MessageType.REPLICA_SUSPECT,
            sender=self.endpoint.name,
            payload={
                "container": self.container.name,
                "replica": member,
                "suspected_at": self.env.now,
            },
        )
        try:
            yield self.messenger.send(self.node, GLOBAL_MANAGER_ENDPOINT, message)
        except FaultError:
            pass  # unreachable global manager; the next scan may retry

    def rehost(self, new_node: Node) -> None:
        """Move this manager to a surviving node after its host crashed.

        Endpoints re-pin to the new node; the control and monitor loops
        keep running (they were only unreachable, not lost — the manager's
        durable state is its container object).  The replica detector
        resumes scanning with fresh leases via its suspend logic.
        """
        self.node = new_node
        self.endpoint.node = new_node
        if self._hb_monitor is not None:
            self._hb_monitor.rehost(new_node)
        # An overlay leaf is pinned to the dead host; fall back to direct
        # reports so metric/liveness traffic resumes from the new node.
        self.send_report = None

    # -- control loop ------------------------------------------------------------------

    def _control_loop(self):
        """Run each control request as one protocol run, in arrival order.

        The run's context is the request (``{"lm", "msg"}``); its round
        bodies read their arguments from the message payload.
        """
        container = self.container
        name = container.name
        # request type -> (protocol, trace amount, telemetry mark): the
        # amount is read when the request arrives, the mark from the run's
        # context after it ends
        requests = {
            MessageType.INCREASE_REQUEST: (
                protocols.INCREASE, lambda msg: len(msg.payload["nodes"]),
                lambda data: f"increase {name} +{len(data['msg'].payload['nodes'])}"),
            MessageType.DECREASE_REQUEST: (
                protocols.DECREASE, lambda msg: msg.payload["count"],
                lambda data: f"decrease {name} -{data['count']}"),
            MessageType.OFFLINE_REQUEST: (
                protocols.OFFLINE, lambda msg: container.units,
                lambda data: f"offline {name}"),
            MessageType.REPLACE_REQUEST: (
                protocols.REPLACE, lambda msg: 1,
                lambda data: f"replace {name}/{data['msg'].payload['replica']}"),
            MessageType.SET_STRIDE: (protocols.SET_STRIDE, lambda msg: 0, None),
            MessageType.SET_HASHING: (protocols.SET_HASHING, lambda msg: 0, None),
        }
        while True:
            try:
                msg = yield self.endpoint.recv(where=lambda m: m.mtype in requests)
            except Interrupt:
                return
            spec, amount, mark = requests[msg.mtype]
            data = {"lm": self, "msg": msg}
            yield self.engine.execute(spec, subject=name, amount=amount(msg), data=data)
            if mark is not None:
                self._mark(mark(data))

    # -- shared protocol tail ----------------------------------------------------------

    def _reply(self, msg: Message, mtype: MessageType, payload: dict,
               ctx=None, charge_seconds: Optional[float] = None):
        """Send the correlated completion reply to the global manager.

        The shared tail of every control protocol: build the reply, send it
        over the control plane and, given the protocol's ``ctx``, charge the
        manager-to-manager round.  ``charge_seconds`` overrides the charged
        duration (offline charges the reply at zero cost because the freed
        nodes are already surrendered when it is sent).
        """
        reply = msg.reply(mtype, sender=self.endpoint.name, payload=payload)
        t0 = self.env.now
        yield self.messenger.send(self.node, GLOBAL_MANAGER_ENDPOINT, reply)
        if ctx is not None:
            elapsed = (self.env.now - t0) if charge_seconds is None else charge_seconds
            ctx.charge("manager", elapsed, messages=1)

    def _mark(self, text: str) -> None:
        self.telemetry.mark(self.env.now, text)

    # -- increase -------------------------------------------------------------------------

    def _spawn_replicas(self, nodes: List[Node], ctx):
        """Round-robin / tree growth: spawn and wire new replicas in place."""
        container = self.container
        donors = [r for r in container.replicas if not r.passive]
        for node in nodes:
            ctx.round(f"local->replica@{node.node_id}: spawn")
            # Peers the newcomer must exchange endpoint metadata with:
            # the manager, every existing replica, and every upstream writer.
            peers = [self.node] + [r.node for r in container.replicas]
            if container.input_link is not None:
                peers += [w.node for w in container.input_link.writers]
            replica = container.add_replica(node)
            t0 = self.env.now
            for peer in peers:
                try:
                    yield self.messenger.network.transfer(node, peer, 1024)
                    yield self.env.timeout(CONNECTION_SETUP_SECONDS)
                    yield self.messenger.network.transfer(peer, node, 256)
                except FaultError:
                    # A dead peer cannot answer the metadata exchange; it is
                    # itself awaiting recovery, so skip it rather than wedge
                    # the whole spawn.
                    ctx.round(f"peer@{peer.node_id}: unreachable, skipped")
            ctx.charge("intra_container", self.env.now - t0, messages=2 * len(peers))
            # Stateful components bootstrap the newcomer from a state
            # snapshot held by an existing replica (future-work support).
            state = container.spec.state_bytes(container.natoms_hint)
            donors = [d for d in donors if not d.node.failed]
            if state > 0 and donors and not replica.passive:
                t0 = self.env.now
                try:
                    yield self.messenger.network.transfer(donors[0].node, node, state)
                    ctx.charge("state_migration", self.env.now - t0, messages=1)
                    ctx.round(f"state snapshot -> replica@{node.node_id}")
                except FaultError:
                    ctx.round(f"state snapshot -> replica@{node.node_id}: lost donor")
            ctx.round(f"replica@{node.node_id}->local: ready")
            self.watch_replica(replica)

    def _relaunch_parallel(self, new_nodes: List[Node], ctx):
        """MPI resize: tear down all ranks, aprun a bigger job.

        The torn-down ranks' nodes are held by this protocol run until the
        relaunched job spawns on them again.
        """
        container = self.container
        mine = container_owner(container.name)
        # Quiesce input, tear down existing ranks.
        if container.input_link is not None:
            t0 = self.env.now
            yield container.input_link.pause_writers()
            yield container.input_link.drain_readers()
            ctx.charge("writer_pause", self.env.now - t0)
        # Carry unprocessed input across the teardown: the relaunched ranks
        # must see every timestep the old ones had queued.
        stranded = []
        for replica in container.replicas:
            stranded.extend(replica.drain_queue())
        old_nodes: List[Node] = []
        if container.replicas:
            old_nodes = container.remove_replicas(container.units, allow_teardown=True)
            self.scheduler.move(old_nodes, ctx.trace, mine)
            self._unwatch_departed()
        # aprun relaunch at the combined size.
        t0 = self.env.now
        all_nodes = old_nodes + list(new_nodes)
        yield self.env.timeout(self.scheduler.aprun.sample(self.scheduler.rng))
        ctx.charge("launch", self.env.now - t0)
        yield from self._spawn_replicas(all_nodes, ctx)
        self.scheduler.move(old_nodes, mine, ctx.trace)
        actives = [r for r in container.replicas if not r.passive]
        for i, chunk in enumerate(stranded):
            yield actives[i % len(actives)].queue.put(chunk)
        if container.input_link is not None:
            yield container.input_link.resume_writers()

    # -- decrease --------------------------------------------------------------------------

    def _dec_prepare(self, ctx) -> None:
        container = self.container
        count = ctx["count"] = ctx["msg"].payload["count"]
        ctx["active"] = count > 0 and container.units > 0
        ctx["freed"] = []
        if ctx["active"]:
            ctx["count"] = min(count, container.units)

    def _pause_writers(self, ctx, count_messages: bool = True):
        """Pause upstream writers so no metadata races a teardown — the
        dominant cost of a decrease (Figure 5)."""
        link = self.container.input_link
        t0 = self.env.now
        yield link.pause_writers()
        ctx.charge(
            "writer_pause", self.env.now - t0,
            messages=2 * len(link.writers) if count_messages else 0,
        )

    def _resume_writers(self, ctx):
        yield self.container.input_link.resume_writers()

    def _dec_retire(self, ctx) -> None:
        """Retire replicas and hand their nodes to the owner the request
        names, so a node never sits with a container it has left."""
        t0 = self.env.now
        container = self.container
        ctx["freed"] = container.remove_replicas(ctx["count"])
        self.scheduler.move(ctx["freed"], ctx["msg"].payload["to"],
                            container_owner(container.name))
        self._unwatch_departed()
        ctx.charge("intra_container", self.env.now - t0, messages=ctx["count"])

    def _dec_merge_state(self, ctx):
        """Stateful components: each departing replica's state merges into
        a survivor before the node is surrendered."""
        container = self.container
        state = container.spec.state_bytes(container.natoms_hint)
        survivors = [r for r in container.replicas if not r.passive]
        if state > 0 and survivors:
            t0 = self.env.now
            for i, node in enumerate(ctx["freed"]):
                target = survivors[i % len(survivors)]
                yield self.messenger.network.transfer(node, target.node, state)
            ctx.charge("state_migration", self.env.now - t0,
                       messages=len(ctx["freed"]))
            ctx.round(f"state merged into {len(survivors)} survivors")

    # -- replace (crash recovery) ----------------------------------------------------------

    def _rep_locate(self, ctx) -> None:
        dead = next(
            (r for r in self.container.replicas
             if r.name == ctx["msg"].payload["replica"]),
            None,
        )
        ctx["dead"] = dead
        ctx["redelivered"] = 0
        if dead is not None:
            if not dead.crashed:
                dead.crash()
            self.unwatch_replica(dead.name)

    def _rep_detach(self, ctx) -> None:
        dead = ctx["dead"]
        self.container.replicas.remove(dead)
        for writer in dead.writers.values():
            # Outputs a downstream reader already pulled have a live
            # copy there: complete their upstream handoff.  The rest
            # died in this buffer; their inputs stay unacked upstream
            # and will be re-produced through redelivery.
            writer.release_handed_off()
            if writer.link is not None:
                writer.link.remove_writer(writer)

    def _rep_redeliver(self, ctx) -> None:
        # Survivors (incl. the newcomer) exist now; hand the dead
        # reader's backlog back to the link and re-push every chunk
        # it had pulled but never acked processed.  Link-level dedup
        # keeps the redelivery idempotent.
        dead = ctx["dead"]
        link = self.container.input_link
        link.remove_reader(dead.reader)
        redelivered = 0
        for writer in link.writers:
            if writer.retain_until_processed:
                redelivered += writer.redeliver_unacked(dead.reader.name)
        ctx["redelivered"] = redelivered

    # -- data-flow controls ----------------------------------------------------------------

    def _stride_validate(self, ctx):
        container = self.container
        stride = int(ctx["msg"].payload["stride"])
        if stride < 1 or (container.essential and stride > 1):
            yield from self._reply(
                ctx["msg"], MessageType.NACK, {"stride": container.stride}
            )
            raise ProtocolAbort(f"stride 1/{stride} refused", result=False)

    def _stride_apply(self, ctx):
        stride = int(ctx["msg"].payload["stride"])
        self.container.stride = stride
        self._mark(f"stride {self.container.name} -> 1/{stride}")
        yield from self._reply(ctx["msg"], MessageType.ACK, {"stride": stride})
        ctx.result = True

    def _hashing_apply(self, ctx):
        enabled = bool(ctx["msg"].payload["enabled"])
        self.container.hashing = enabled
        yield from self._reply(ctx["msg"], MessageType.ACK, {"enabled": enabled})
        ctx.result = True

    # -- offline ----------------------------------------------------------------------------

    def _off_drain(self, ctx):
        container = self.container
        stranded = []
        freed: List[Node] = []
        for replica in container.replicas:
            if container.input_link is not None and replica.reader is not None:
                container.input_link.readers.remove(replica.reader)
                stranded.extend(
                    m.payload for m in replica.reader.stop()
                )  # unpulled metadata: chunks stay in upstream buffers
            stranded_chunks = replica.drain_queue()
            replica.retire(hard=True)
            if replica.current_chunk is not None:
                stranded_chunks.append(replica.current_chunk)
            for chunk in stranded_chunks:
                # Pulled-but-unprocessed work dies with the stage: account
                # the drop, and strand to disk only a chunk the ledger
                # answers ``shed`` for (a spilled one is already durable).
                fate = container.fates.shed(
                    chunk.timestep, container.name, "offline_prune",
                    self.env.now, chunk_id=chunk.chunk_id,
                )
                if fate == SHED and container.sink_fs is not None:
                    yield container.sink_fs.write_chunk(
                        replica.node, f"{container.name}.stranded", chunk,
                        stranded=True,
                    )
            freed.append(replica.node)
        container.replicas = []
        self.scheduler.restock(freed, container_owner(container.name))
        self._unwatch_departed()
        container.offline = True
        ctx["stranded"] = stranded
        ctx["freed"] = freed

    # -- monitoring ----------------------------------------------------------------------------

    def _monitor_loop(self):
        """Report this container's metrics every ``monitor_interval``.

        A report carries only what the global manager reads (DESIGN.md
        §4l): latency (mean and live estimate), queue depth, upstream
        buffer occupancy and, when an SLA is set, the sizing verdict
        (shortfall and headroom).  The same tick records four telemetry
        series for the figures.
        """
        container = self.container
        name = container.name
        series = None
        latency_series = None
        while True:
            try:
                yield self.env.timeout(self.monitor_interval)
            except Interrupt:
                return
            if container.offline:
                continue
            t = self.env.now
            units = container.units
            latency_mean = container.latency.mean()
            queued = container.total_queued
            occupancy = container.upstream_buffer_occupancy()
            report = {
                "container": name,
                "time": t,
                "latency_mean": latency_mean,
                "latency_est": container.latency_estimate(latency_mean),
                "queued": queued,
                "buffer_occupancy": occupancy,
            }
            if self.sla_interval is not None:
                needed = self.units_to_sustain(self.sla_interval)
                report["shortfall"] = max(0, needed - units)
                report["headroom"] = max(0, units - needed) if container.active else 0
            if latency_mean is not None:
                if latency_series is None:
                    latency_series = self.telemetry.series(name, "latency_mean")
                latency_series.record(t, latency_mean)
            if series is None:
                series = [self.telemetry.series(name, metric)
                          for metric in ("queued", "buffer_occupancy", "units")]
            series[0].record(t, queued)
            series[1].record(t, occupancy)
            series[2].record(t, units)
            message = Message(
                MessageType.METRIC_REPORT, sender=self.endpoint.name, payload=report
            )
            try:
                if self.send_report is not None:
                    yield self.send_report(message)
                else:
                    yield self.messenger.send(self.node, GLOBAL_MANAGER_ENDPOINT, message)
            except FaultError:
                # Reporting is best-effort under faults: a lost report shows
                # up as manager silence at the global detector, which is the
                # intended signal; the loop itself must survive.
                continue

    def stop(self) -> None:
        for proc in (self._control_proc, self._monitor_proc):
            if proc.is_alive:
                proc.interrupt("stop")
        if self.detector is not None:
            self.detector.stop()
        if self._hb_monitor is not None:
            self._hb_monitor.stop()
            self._hb_monitor = None
