"""Pipeline assembly: LAMMPS -> Helper -> Bonds -> CSym (-> CNA) under management.

:class:`PipelineBuilder` wires the full experiment stack the paper evaluates:
the simulated machine, the staging partition and its scheduler, the DataTap
links, the LAMMPS driver, one container per SmartPointer stage, the local
managers, and the global manager.  The resulting :class:`Pipeline` exposes
``run()`` plus the telemetry the Figure 7-10 runners report.

The default stage allocations per workload reproduce the paper's three
configurations (see DESIGN.md's experiment index).  Every knob lives in the
:class:`~repro.spec.model.PipelineSpec` the builder compiles; pipelines are
built through :func:`repro.spec.build.build`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.simkernel import Environment
from repro.simkernel.errors import SimulationError
from repro.cluster.machine import Machine
from repro.cluster.presets import franklin
from repro.cluster.scheduler import BatchScheduler, container_owner
from repro.containers.container import Container
from repro.containers.global_manager import GlobalManager
from repro.containers.local_manager import LocalManager
from repro.containers.policy import LatencyPolicy, ManagementPolicy
from repro.containers.recovery import NoRecovery
from repro.controlplane import ControlPlaneEngine, ControlPlaneTrace
from repro.datatap.buffer import StagingBuffer
from repro.datatap.link import DataTapLink
from repro.datatap.scheduling import NoPullScheduler, PullScheduler
from repro.datatap.writer import DataTapWriter
from repro.adios.failover import NoFailover
from repro.adios.filesystem import ParallelFileSystem
from repro.analytics.predictive import NoForecast
from repro.evpath.channel import Messenger, RetryPolicy
from repro.evpath.overlay import NoOverlay
from repro.fate import FateLedger
from repro.lammps.driver import NUM_SIM_WRITERS, LammpsDriver
from repro.lammps.workload import WeakScalingWorkload
from repro.monitoring.metrics import Telemetry
from repro.perf.registry import REGISTRY as PERF
from repro.smartpointer.component import SMARTPOINTER_COMPONENTS, ComponentSpec
from repro.smartpointer.costs import ComputeModel

if TYPE_CHECKING:
    from repro.cluster.node import Node
    from repro.spec.model import PipelineSpec, StageSpec


def default_stages(workload: WeakScalingWorkload) -> List[StageSpec]:
    """The paper's allocations for the three Figure 7-9 configurations."""
    from repro.spec.model import StageSpec  # repro.spec imports this module

    helper_needed = SMARTPOINTER_COMPONENTS["helper"].cost.units_to_sustain(
        workload.natoms, workload.output_interval, ComputeModel.TREE
    )
    if workload.sim_nodes <= 256:
        units = {"helper": 4, "bonds": 4, "csym": 3, "cna": 2}
    elif workload.sim_nodes <= 512:
        units = {"helper": 3, "bonds": 9, "csym": 5, "cna": 3}
    else:
        units = {"helper": max(6, helper_needed), "bonds": 7, "csym": 4, "cna": 3}
    return [
        StageSpec("helper", units["helper"], model=ComputeModel.TREE.value),
        StageSpec("bonds", units["bonds"], upstream="helper"),
        StageSpec("csym", units["csym"], upstream="bonds"),
        StageSpec("cna", units["cna"], upstream="bonds", standby=True),
    ]


class Pipeline:
    """A fully wired experiment; see :class:`PipelineBuilder`."""

    def __init__(self, env: Environment, settings: Dict[str, Any]):
        self.env = env
        #: the spec's builder block over its defaults; every stage, built
        #: or launched mid-run, takes its knobs from here
        self.settings = settings
        self.machine: Optional[Machine] = None
        self.messenger: Optional[Messenger] = None
        self.scheduler: Optional[BatchScheduler] = None
        self.fs: Optional[ParallelFileSystem] = None
        self.telemetry = Telemetry()
        #: one control-plane engine shared by every manager in the pipeline;
        #: its trace is the run's only record of protocol executions
        self.control_trace = ControlPlaneTrace()
        self.control_plane = ControlPlaneEngine(env, trace=self.control_trace)
        self.driver: Optional[LammpsDriver] = None
        #: multi-tenant identity: the owning fleet (if any) and the tenant
        #: name this pipeline runs under.  Set by the fleet builder; the
        #: fleet-wide DST invariants key off ``fleet`` being non-None.
        self.fleet = None
        self.tenant: Optional[str] = None
        self.containers: Dict[str, Container] = {}
        self.managers: Dict[str, LocalManager] = {}
        self.global_manager: Optional[GlobalManager] = None
        self.links: Dict[str, DataTapLink] = {}
        #: unscheduled pull admission, shared by every reader past the
        #: first stage (and by the driver when DataStager scheduling is off)
        self.unscheduled = NoPullScheduler(env)
        #: every optional block below is a no-op stand-in until the
        #: builder attaches the real one, so callers never branch on it
        self.monitoring_overlay = NoOverlay()
        self.recovery = NoRecovery()
        self.fault_injector = None
        self.branch_fired = False
        self.end_to_end: List[tuple] = []  # (exit_time, timestep, latency)
        #: which sink recorded each exit — (exit_time, sink_name, timestep).
        #: A fan-out topology has several sinks, each delivering the full
        #: stream once; exactly-once is per (sink, timestep) pair.
        self.exit_log: List[tuple] = []
        #: every timestep's fate — delivered, shed, or spilled then
        #: replayed — written only through this ledger
        self.fates = FateLedger()
        from repro.overload import DegradationTrace, ShedLedger
        from repro.overload.backpressure import NoBackpressure
        from repro.overload.brownout import NoBrownout

        #: read view over the ledger's shed records
        self.shed_ledger = ShedLedger(self.fates)
        #: structured record of every degradation/restoration transition
        self.degradation = DegradationTrace()
        #: overload controllers
        self.backpressure = NoBackpressure()
        self.brownout = NoBrownout()
        #: the forecaster (repro.analytics): a PredictiveManager when the
        #: spec's overload block says ``mode: predictive``
        self.analytics = NoForecast()
        #: degrade-to-disk failover (repro.adios.failover), and the read
        #: view over the ledger's spill records (None without failover)
        self.failover = NoFailover()
        self.spill_ledger = None

    def run(self, settle: float = 60.0, deadline: Optional[float] = None) -> bool:
        """Run until the driver finishes (plus ``settle`` seconds of drain).

        ``deadline`` caps the simulated time waited for the driver — without
        it, a fully blocked pipeline (the pathology containers exist to
        prevent) would tick its monitoring loops forever.  Defaults to 4x
        the nominal run length.  Returns True if the driver finished.
        """
        if self.driver is None:
            raise SimulationError("pipeline has no driver")
        wl = self.driver.workload
        if deadline is None:
            deadline = 4.0 * wl.total_steps * wl.output_interval
        # Wall-clock of the whole DES run lands in the shared perf registry
        # (the same one the analytics kernels report to), so end-to-end
        # experiment timings show up in its snapshots alongside them.
        with PERF.timer("pipeline.run"):
            self.env.run(until=self.env.any_of(
                [self.driver.finished, self.env.timeout(deadline)]
            ))
            finished = self.driver.finished.triggered
            if finished:
                self.env.run(until=self.env.now + settle)
            self.stop()
        # Attribute wall-clock to engine overhead: events processed,
        # tombstones skipped, heap high-water mark (delta-published, so a
        # later drain/publish never double-counts).
        self.env.publish_perf(PERF)
        return finished

    def stop(self) -> None:
        """Stop the managers and every controller.  The order is fixed:
        the stop interrupts' event ids feed the seeded DST tie-break."""
        self.global_manager.stop()
        self.monitoring_overlay.stop()
        self.backpressure.stop()
        self.brownout.stop()
        self.analytics.stop()

    def node_census(self) -> dict:
        """Where every staging node currently is, by node id: the raw data
        of the :mod:`repro.dst` node-conservation oracle.

        ``owner`` is the scheduler's owner map in its order, each owner as
        ``free``, ``failed``, ``container:<name>`` or, for a protocol run
        holding the node in flight, ``protocol:<name>[<subject>]``; ``ended``
        is the part of it held by protocol runs that have finished.
        ``members`` maps each container owner to its live replica and
        standby nodes, ``replicas`` each live replica's node to its
        container owner, and ``crashed`` holds the pool nodes that are down.
        """
        owners = self.scheduler.owners()
        members, replicas = {}, {}
        for name, container in self.containers.items():
            mine = container_owner(name)
            held = members[mine] = {n.node_id for n in container.standby_nodes}
            for replica in container.replicas:
                if not replica.crashed:
                    held.add(replica.node.node_id)
                    replicas[replica.node.node_id] = mine
        return {
            "pool": {n.node_id for n in self.scheduler.pool.nodes},
            "owner": {n.node_id: str(held) for n, held in owners},
            "ended": {n.node_id: str(held) for n, held in owners
                      if not isinstance(held, str) and held.status != "running"},
            "crashed": {n.node_id for n, _ in owners if n.failed},
            "members": members,
            "replicas": replicas,
        }

    # -- convenience metrics ------------------------------------------------------------

    def record_exit(self, chunk, sink: str = "pipeline") -> None:
        latency = self.env.now - chunk.created_at
        PERF.count("pipeline.exits")
        self.end_to_end.append((self.env.now, chunk.timestep, latency))
        self.exit_log.append((self.env.now, sink, chunk.timestep))
        self.telemetry.record("pipeline", "end_to_end", self.env.now, latency)
        self.telemetry.record("pipeline", "end_to_end_by_step", chunk.timestep, latency)
        self.fates.deliver(sink, chunk.timestep, self.env.now)

    # -- fault injection -------------------------------------------------------------------

    def arm_faults(self, plan):
        """Attach a :class:`~repro.faults.FaultPlan` to the running pipeline.

        Installs the network fault state on the machine's fabric and starts
        the cluster injector over every machine node; a node crash takes its
        resident replicas down with it (violently — recovery rebuilds from
        upstream custody).  Called after build() so schedules can target the
        concrete node ids the stages landed on.
        """
        from repro.faults import ClusterFaultInjector, NetworkFaultState

        self.machine.network.faults = NetworkFaultState(self.env, plan)
        self.arm_links(self.machine.network.faults)
        injector = ClusterFaultInjector(
            self.env, plan, self.machine.nodes, scheduler=self.scheduler
        )
        injector.on_crash(self._on_node_crash)
        injector.start()
        self.fault_injector = injector
        return injector

    def arm_links(self, faults) -> None:
        """Hand a :class:`~repro.faults.NetworkFaultState`'s windows to every
        replica detector: beats inside them become real HEARTBEATs."""
        for manager in self.managers.values():
            if manager.detector is not None:
                manager.detector.arm_links(faults)

    def _on_node_crash(self, node) -> None:
        for container in self.containers.values():
            for replica in list(container.replicas):
                if replica.node is node and not replica.crashed:
                    replica.crash()

    # -- stages -------------------------------------------------------------------------

    def add_stage(self, stage: StageSpec, component: ComponentSpec,
                  nodes: Sequence[Node],
                  output_links: Sequence[DataTapLink] = ()) -> Container:
        """Construct one stage: its container on ``nodes``, its local
        manager, and its registration with the global manager.

        The one stage constructor: :class:`PipelineBuilder` calls it for
        every stage of the spec and :meth:`launch_stage` for a stage
        launched mid-run, so both take the same settings.  ``nodes`` become
        replicas (standby reservations for a standby stage) and host the
        manager; a launched stage starts with none, its manager riding on
        the global manager's node, and grows through the increase protocol.
        """
        k = self.settings
        gm = self.global_manager
        fed_by_sim = stage.upstream is None
        container = Container(
            self.env,
            self.messenger,
            component,
            stage.compute_model(),
            self.links[stage.name],
            # the *stage* name, not component.name: several stages may run the
            # same component, and managers/recovery key on this
            name=stage.name,
            output_links=output_links,
            queue_capacity=stage.queue_capacity,
            gather_count=NUM_SIM_WRITERS if fed_by_sim else 1,
            # DataStager scheduling gates the pulls that cross from the
            # simulation into the staging area (the first stage); pulls
            # between staging nodes stay unscheduled.
            pull_scheduler=self.driver.pull_scheduler if fed_by_sim else self.unscheduled,
            sink_fs=self.fs,
            active=not stage.standby,
            natoms_hint=self.driver.workload.natoms,
            writer_buffer_bytes=k["stage_buffer_bytes"],
            sla_factor=stage.sla_factor,
            retain_output=k["fault_tolerance"],
            fates=self.fates,
        )
        container.on_complete = self.make_on_complete(stage.name)
        self.containers[stage.name] = container
        if stage.standby:
            container.standby_nodes = list(nodes)
        else:
            for node in nodes:
                container.add_replica(node)
        manager = LocalManager(
            self.env,
            self.messenger,
            container,
            node=nodes[0] if nodes else gm.node,
            scheduler=self.scheduler,
            telemetry=self.telemetry,
            monitor_interval=k["monitor_interval"],
            sla_interval=gm.sla_interval,
            engine=self.control_plane,
        )
        self.managers[stage.name] = manager
        gm.register(manager, depends_on=stage.upstream)
        self.monitoring_overlay.join(manager)
        return container

    def launch_stage(self, spec: ComponentSpec, units: int, upstream: str,
                     name: Optional[str] = None):
        """Process: launch a new analytics/visualization container mid-run.

        The paper's interactive scenario ("a user can also launch a
        visualization code when needed"): the new container reads the
        ``upstream`` stage's output — an output link is attached to that
        stage on the fly if it was a sink — takes ``units`` nodes from the
        spare pool via the regular increase protocol, and becomes a managed
        citizen: it reports metrics and can donate nodes (be stolen from)
        like any other non-essential container.
        """
        name = name or spec.name
        return self.env.process(
            self._launch_stage(spec, units, upstream, name), name=f"launch:{name}"
        )

    def _launch_stage(self, component: ComponentSpec, units: int, upstream: str,
                      name: str):
        from repro.spec.model import StageSpec  # repro.spec imports this module

        if name in self.containers:
            raise SimulationError(f"stage {name!r} already exists")
        up = self.containers[upstream]
        # Every consumer stage gets its own link so it sees the *full*
        # upstream stream; sharing a link would round-robin-split it.
        link = DataTapLink(self.env, self.messenger, name=f"->{name}")
        self.backpressure.credit(link)
        up.attach_output_link(link)
        self.links[name] = link
        stage = StageSpec(name, units, component=component.name,
                          model=component.default_model().value, upstream=upstream)
        container = self.add_stage(stage, component, nodes=())
        self.telemetry.mark(self.env.now, f"interactive launch {name}")
        yield self.global_manager.increase(name, units)
        if self.settings["fault_tolerance"]:
            self.managers[name].enable_fault_detection()
        # A cold-start consumer catches up on the spilled history before it
        # sees live data (full-history replay).
        self.failover.request_catchup()
        return container

    # -- completion hooks -------------------------------------------------------------------

    def make_on_complete(self, name: str):
        env = self.env

        def on_complete(container: Container, in_chunk, out_chunk) -> None:
            latency = env.now - in_chunk.entered_stage_at
            self.telemetry.record(name, "step_latency", env.now, latency)
            self.telemetry.record(name, "latency_by_step", in_chunk.timestep, latency)
            # Pipeline exit: a sink stage, or a stage whose downstream was
            # pruned (its output goes to disk).
            if container.output_link is None or container.offline_downstream():
                self.record_exit(out_chunk, sink=name)
            # Dynamic branch: CSym sees the crack marker.
            if (
                name == "csym"
                and not self.branch_fired
                and isinstance(in_chunk.payload, dict)
                and in_chunk.payload.get("crack")
            ):
                self.branch_fired = True
                env.process(self._fire_branch(), name="branch")

        return on_complete

    def _fire_branch(self):
        """CSym detected a break: activate CNA on Bonds' output, retire CSym.

        (Section III-B1: on detection the next stage, CNA, starts reading
        data from Bonds; the CSym path ends.)
        """
        gm = self.global_manager
        self.telemetry.mark(self.env.now, "crack detected: branch to CNA")
        if "cna" in self.containers:
            cna = self.containers["cna"]
            bonds = self.containers.get("bonds")
            if bonds is not None and bonds.output_link is not None:
                cna.input_link = bonds.output_link
            yield gm.activate("cna")
        yield gm.retire("csym")


class PipelineBuilder:
    """Compiles a validated :class:`~repro.spec.model.PipelineSpec` into a
    wired :class:`Pipeline`.

    Everything portable comes from the spec: the workload, the stage list,
    the builder block (over :data:`~repro.spec.model.BUILDER_DEFAULTS`),
    the ``overload`` block (predictive control) and the ``failover`` block
    (degrade-to-disk, retry jitter).  The keyword arguments are the
    runtime-only objects a serialized spec cannot hold: a shared fleet
    ``machine``, the ``tenant`` name, and a management ``policy``
    instance.  Construct through :func:`repro.spec.build.build`, which
    validates the spec first.
    """

    def __init__(
        self,
        env: Environment,
        spec: PipelineSpec,
        *,
        machine: Optional[Machine] = None,
        tenant: Optional[str] = None,
        policy: Optional[ManagementPolicy] = None,
    ):
        self.env = env
        self.spec = spec
        self.workload = spec.workload.to_workload()
        #: the builder block over its defaults
        self.knobs = knobs = spec.settings()
        self.stages = spec.stages or default_stages(self.workload)
        self.policy = policy or LatencyPolicy(
            overflow_occupancy=knobs["overflow_occupancy"]
        )
        self.machine = machine
        #: fleet tenancy: prefixes this pipeline's machine partitions and
        #: namespaces its scheduler occupancy counters as ``fleet.<tenant>.*``
        self.tenant = tenant

    def build(self) -> Pipeline:
        env = self.env
        wl = self.workload
        spec = self.spec
        k = self.knobs
        pipe = Pipeline(env, k)

        # Machine and partitions.  The simulation partition only needs the
        # writer nodes to exist as endpoints; we size the machine at
        # writers + staging to keep the topology graph small, while the
        # workload object carries the logical simulation node count.
        machine = self.machine or franklin(
            env, num_nodes=NUM_SIM_WRITERS + wl.staging_nodes + 2
        )
        pipe.machine = machine
        pipe.tenant = self.tenant
        prefix = f"{self.tenant}:" if self.tenant else ""
        sim_part = machine.partition(f"{prefix}sim", NUM_SIM_WRITERS)
        staging = machine.partition(f"{prefix}staging", wl.staging_nodes)

        # seeded scatter on the messenger's retry backoff; no failover
        # block (or zero jitter) keeps the fixed ladder
        failover = spec.failover
        retry = RetryPolicy(
            jitter=failover.retry_jitter if failover is not None else 0.0,
            seed=k["seed"],
        )
        messenger = Messenger(env, machine.network, retry=retry)
        pipe.messenger = messenger
        fs = ParallelFileSystem(env)
        pipe.fs = fs
        scheduler = BatchScheduler(
            env, staging,
            label=f"fleet.{self.tenant}" if self.tenant else "cluster.scheduler",
        )
        pipe.scheduler = scheduler

        import numpy as np

        scheduler.rng = np.random.default_rng(k["seed"])

        # Global manager co-located on the first staging node (a management
        # process, not a replica slot — documented in DESIGN.md).
        gm_node = staging[0]
        gm = GlobalManager(
            env,
            messenger,
            gm_node,
            scheduler,
            sla_interval=wl.output_interval,
            policy=self.policy,
            telemetry=pipe.telemetry,
            control_interval=k["control_interval"],
            engine=pipe.control_plane,
            fates=pipe.fates,
        )
        if self.tenant is not None:
            gm.tenant = self.tenant
        pipe.global_manager = gm

        # Links: one per stage boundary, keyed by the consumer stage name.
        links: Dict[str, DataTapLink] = {}
        for stage in self.stages:
            links[stage.name] = DataTapLink(env, messenger, name=f"->{stage.name}")
        pipe.links = links

        # LAMMPS writers feed the stage whose upstream is None.
        first_stage = next(s for s in self.stages if s.upstream is None)
        sim_buffer_bytes = k["sim_buffer_bytes"]
        sim_writers = []
        for i in range(NUM_SIM_WRITERS):
            node = sim_part[i % len(sim_part)]
            # Uncapped, a writer buffer takes half its node's free memory.
            capacity = node.memory_free / 2 if sim_buffer_bytes is None else sim_buffer_bytes
            sim_writers.append(DataTapWriter(
                env, messenger, node,
                buffer=StagingBuffer(env, node, capacity, name=f"lammps-w{i}.buf"),
                name=f"lammps-w{i}",
                retain_until_processed=k["fault_tolerance"],
            ))
        for writer in sim_writers:
            links[first_stage.name].add_writer(writer)

        pull_sched = (
            PullScheduler(env, max_concurrent_pulls=4, defer_during_output=True)
            if k["use_pull_scheduler"]
            else pipe.unscheduled
        )
        driver = LammpsDriver(
            env, sim_writers, wl, pull_sched, crack_step=k["crack_step"],
        )
        pipe.driver = driver
        pipe.fates.expected = wl.total_steps

        # Stages in spec order, on links that all exist already (a replica
        # wires its reader and writers into them as it spawns).
        downstream_of: Dict[str, List[str]] = {}
        for stage in self.stages:
            if stage.upstream is not None:
                downstream_of.setdefault(stage.upstream, []).append(stage.name)

        # Topology-aware placement (the paper's future-work extension):
        # precompute a stage -> node assignment minimizing hop-weighted data
        # movement; otherwise stages take nodes first-fit.
        planned: Optional[Dict[str, List]] = None
        if k["placement"] == "topology":
            from repro.containers.placement import (
                TopologyAwarePlacement,
                pipeline_placement_problem,
            )

            ratios = {s.name: s.resolve_component().output_ratio for s in self.stages}
            edges = []
            for stage in self.stages:
                upstream = stage.upstream or "sim"
                volume = wl.bytes_per_step
                if stage.upstream is not None:
                    volume *= ratios.get(stage.upstream, 1.0)
                edges.append((upstream, stage.name, volume))
            problem = pipeline_placement_problem(
                machine,
                {s.name: s.units for s in self.stages},
                edges,
                staging_nodes=scheduler.peek_free(),
                sim_io_nodes=list(sim_part.nodes),
            )
            planned = TopologyAwarePlacement().plan(machine, problem).assignment

        allocations = [
            scheduler.allocate_specific(planned[stage.name],
                                        container_owner(stage.name))
            if planned is not None
            else scheduler.allocate(stage.units, container_owner(stage.name))
            for stage in self.stages
        ]

        # Monitoring transport: direct manager-to-manager messages (default)
        # or a windowed aggregation overlay (Section III-E) whose root sits
        # on the global manager's node.  The tree is laid out over the
        # built stages' manager nodes; add_stage joins every manager to it,
        # a stage launched mid-run included.
        if k["monitoring"] == "overlay":
            from repro.evpath.overlay import OverlayTree

            pipe.monitoring_overlay = OverlayTree(
                env,
                messenger,
                gm_node,
                [nodes[0] for nodes in allocations],
                on_report=lambda msg: gm.ingest_report(msg.payload),
                flush_interval=k["monitor_interval"],
            )

        standby_names = {s.name for s in self.stages if s.standby}
        for stage, nodes in zip(self.stages, allocations):
            name = stage.name
            consumers = downstream_of.get(name, [])
            # Each active consumer gets its own link (every consumer sees the
            # full stream).  Standby consumers (CNA) do not get a link up
            # front: the paper's branch *swaps* the reader set — on
            # activation, CNA's readers join the first consumer's link in
            # place of the retiring CSym (see Pipeline._fire_branch).  A
            # stage whose consumers are all standby keeps one link so the
            # branch has something to join; until then it emits to disk.
            active_consumers = [c for c in consumers if c not in standby_names]
            if active_consumers:
                output_links = [links[c] for c in active_consumers]
            elif consumers:
                output_links = [links[consumers[0]]]
            else:
                output_links = []
            pipe.add_stage(stage, stage.resolve_component(), nodes, output_links)

        # Shed accounting is always wired (recording is pure bookkeeping —
        # a run that never sheds is unchanged); the controllers that *cause*
        # sheds are strictly opt-in below.
        driver.on_shed = lambda step: pipe.fates.shed(
            step, "lammps", "backpressure_stride", env.now
        )

        # Ladder transitions and shed records publish their deltas into
        # telemetry as they happen (pure bookkeeping: no events, and a run
        # that never degrades or sheds records nothing).
        telemetry = pipe.telemetry

        def _publish_transition(step, trace, _t=telemetry):
            _t.record("overload", "degradation_level", step.time,
                      float(trace.overall_level))
            _t.record("overload", "time_in_degraded", step.time,
                      trace.time_in_degraded(step.time))

        def _publish_shed(record, fates, _t=telemetry):
            _t.record("overload", "shed_steps", record.time,
                      float(len(fates.shed_steps())))

        pipe.degradation.subscribers.append(_publish_transition)
        pipe.fates.shed_subscribers.append(_publish_shed)

        # Every block below left off keeps the pipeline's no-op stand-in.
        if spec.overload is not None and spec.overload.mode == "predictive":
            from repro.analytics import PredictiveManager

            pipe.analytics = PredictiveManager(env, pipe)

        if k["backpressure"]:
            from repro.overload import BackpressureController

            pipe.backpressure = BackpressureController(env, pipe, pipe.analytics)
        if k["brownout"]:
            from repro.overload import BrownoutController, NullPolicy

            # The ladder owns remediation; the legacy policy loop would
            # fight it (and its offline decisions are permanent).
            gm.policy = NullPolicy()
            pipe.brownout = BrownoutController(
                env, gm, pipe.analytics, degradation=pipe.degradation,
            )

        # Fault tolerance: replica heartbeat leases into each local manager,
        # manager liveness tracked off the metric-report stream, and the
        # recovery protocols behind both.
        if k["fault_tolerance"]:
            from repro.containers.recovery import RecoveryManager

            for manager in pipe.managers.values():
                manager.enable_fault_detection()
            # attaches itself as the global manager's recovery; a manager's
            # lease spans four of its report intervals
            RecoveryManager(
                env, messenger, gm,
                manager_lease_timeout=4.0 * k["monitor_interval"],
            )
        pipe.recovery = gm.recovery

        # Degrade-to-disk failover: divert sheds into the spill store,
        # replay them once the consumer side is healthy again.  Attached
        # last so it sees the recovery manager and the credit-equipped
        # links; fault plans arm after build, so injected crashes hit a
        # fully wired failover path.
        if failover is not None:
            from repro.adios.failover import FailoverManager

            FailoverManager(env, pipe)

        return pipe
