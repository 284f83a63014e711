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

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.simkernel import Environment
from repro.simkernel.errors import SimulationError
from repro.cluster.machine import Machine
from repro.cluster.presets import franklin
from repro.cluster.scheduler import BatchScheduler
from repro.containers.container import Container
from repro.containers.global_manager import GlobalManager
from repro.containers.local_manager import LocalManager
from repro.containers.policy import LatencyPolicy, ManagementPolicy
from repro.containers.protocol import ProtocolTracer
from repro.controlplane import ControlPlaneEngine, ControlPlaneTrace
from repro.datatap.link import DataTapLink
from repro.datatap.scheduling import PullScheduler
from repro.datatap.writer import DataTapWriter
from repro.adios.filesystem import ParallelFileSystem
from repro.evpath.channel import Messenger
from repro.fate import FateLedger
from repro.lammps.driver import LammpsDriver
from repro.lammps.workload import WeakScalingWorkload
from repro.monitoring.metrics import Telemetry
from repro.perf.registry import REGISTRY as PERF
from repro.smartpointer.component import SMARTPOINTER_COMPONENTS, ComponentSpec
from repro.smartpointer.costs import ComputeModel

if TYPE_CHECKING:
    from repro.spec.model import PipelineSpec


@dataclass
class StageConfig:
    """Configuration of one pipeline stage (container)."""

    component: str
    units: int
    model: ComputeModel
    queue_capacity: int = 1
    standby: bool = False
    #: name of the stage this one reads from; None = reads the simulation
    upstream: Optional[str] = None
    #: SLA class: 1.0 = deadline (finish by the next timestep, e.g.
    #: checkpointing); < 1.0 = low latency (e.g. crack discovery)
    sla_factor: float = 1.0
    #: explicit component spec (e.g. the S3D set); None = look up the
    #: SmartPointer registry by component name
    component_spec: Optional[ComponentSpec] = None

    def spec(self) -> ComponentSpec:
        if self.component_spec is not None:
            return self.component_spec
        return SMARTPOINTER_COMPONENTS[self.component]


def default_stages(workload: WeakScalingWorkload) -> List[StageConfig]:
    """The paper's allocations for the three Figure 7-9 configurations."""
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
        StageConfig("helper", units["helper"], ComputeModel.TREE, upstream=None),
        StageConfig("bonds", units["bonds"], ComputeModel.ROUND_ROBIN, upstream="helper"),
        StageConfig("csym", units["csym"], ComputeModel.ROUND_ROBIN, upstream="bonds"),
        StageConfig("cna", units["cna"], ComputeModel.ROUND_ROBIN, upstream="bonds",
                    standby=True),
    ]


class Pipeline:
    """A fully wired experiment; see :class:`PipelineBuilder`."""

    def __init__(self, env: Environment):
        self.env = env
        self.machine: Optional[Machine] = None
        self.messenger: Optional[Messenger] = None
        self.scheduler: Optional[BatchScheduler] = None
        self.fs: Optional[ParallelFileSystem] = None
        self.telemetry = Telemetry()
        self.tracer = ProtocolTracer()
        #: one control-plane engine shared by every manager in the pipeline,
        #: with its own trace store (isolated from the module default so
        #: concurrent pipelines don't interleave traces)
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
        self.monitoring_overlay = None
        self.recovery = None
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

        #: read view over the ledger's shed records
        self.shed_ledger = ShedLedger(self.fates)
        #: structured record of every degradation/restoration transition
        self.degradation = DegradationTrace()
        #: overload controllers, attached by the builder when enabled
        self.backpressure = None
        self.brownout = None
        #: predictive manager (repro.analytics), attached by the builder
        #: when the spec's overload block says ``mode: predictive``
        self.analytics = None
        #: degrade-to-disk failover (repro.adios.failover) and the read
        #: view over the ledger's spill records, attached by the builder
        #: when the spec's failover block is set; None keeps every legacy
        #: path byte-identical
        self.failover = None
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
            if self.global_manager is not None:
                self.global_manager.stop()
            if self.monitoring_overlay is not None:
                self.monitoring_overlay.stop()
            if self.backpressure is not None:
                self.backpressure.stop()
            if self.brownout is not None:
                self.brownout.stop()
            if self.analytics is not None:
                self.analytics.stop()
        # Attribute wall-clock to engine overhead: events processed,
        # tombstones skipped, heap high-water mark (delta-published, so a
        # later drain/publish never double-counts).
        self.env.publish_perf(PERF)
        return finished

    def node_census(self) -> dict:
        """Where every staging node currently is, by node id.

        The :mod:`repro.dst` node-conservation oracle's raw data: the
        scheduler's pool, its free list (as a list — duplicates are a bug
        the oracle checks for), quarantined crash victims, and the nodes
        held by containers (live replicas plus standby reservations).
        Census by replica/standby membership, not scheduler jobs: several
        recovery paths legitimately move nodes without updating job
        bookkeeping.
        """
        sched = self.scheduler
        pool = {n.node_id for n in sched.pool.nodes}
        free = [n.node_id for n in sched._free]
        failed = {n.node_id for n in sched.failed_nodes if n.node_id in pool}
        held = set()
        for container in self.containers.values():
            for replica in container.replicas:
                if not replica.crashed and replica.node.node_id in pool:
                    held.add(replica.node.node_id)
            for node in container.standby_nodes:
                if node.node_id not in failed:
                    held.add(node.node_id)
        return {"pool": pool, "free": free, "failed": failed, "held": held}

    def perf_snapshot(self) -> dict:
        """Timers/counters accumulated during this process's runs, as a
        plain dict."""
        return PERF.snapshot()

    # -- convenience metrics ------------------------------------------------------------

    def latency_series(self, container: str):
        series = self.telemetry.get(container, "step_latency")
        return ([], []) if series is None else (series.times, series.values)

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

    # -- interactive (mid-run) launches ---------------------------------------------------

    def launch_stage(
        self,
        spec,
        units: int,
        upstream: str,
        name: Optional[str] = None,
        model=None,
        queue_capacity: int = 1,
        monitor_interval: float = 15.0,
    ):
        """Process: launch a new analytics/visualization container mid-run.

        The paper's interactive scenario ("a user can also launch a
        visualization code when needed"): the new container reads the
        ``upstream`` stage's output — an output link is attached to that
        stage on the fly if it was a sink — takes ``units`` nodes from the
        spare pool via the regular increase protocol, and becomes a managed
        citizen: it reports metrics and can donate nodes (be stolen from)
        like any other non-essential container.
        """
        return self.env.process(
            self._launch_stage(spec, units, upstream, name, model,
                               queue_capacity, monitor_interval),
            name=f"launch:{name or spec.name}",
        )

    def _launch_stage(self, spec, units, upstream, name, model,
                      queue_capacity, monitor_interval):
        from repro.smartpointer.costs import ComputeModel

        name = name or spec.name
        if name in self.containers:
            raise SimulationError(f"stage {name!r} already exists")
        up = self.containers[upstream]
        # Every consumer stage gets its own link so it sees the *full*
        # upstream stream; sharing a link would round-robin-split it.
        link = DataTapLink(self.env, self.messenger, name=f"->{name}")
        up.attach_output_link(link)
        self.links[name] = link
        container = Container(
            self.env,
            self.messenger,
            spec,
            model or spec.default_model(),
            input_link=link,
            output_link=None,
            name=name,
            queue_capacity=queue_capacity,
            sink_fs=self.fs,
            natoms_hint=self.driver.workload.natoms if self.driver else 0,
            fates=self.fates,
        )
        self.containers[name] = container
        container.on_complete = self.make_on_complete(name)
        # The manager rides on the global manager's node until the first
        # replica exists; replicas spawn through the standard protocol.
        manager = LocalManager(
            self.env,
            self.messenger,
            container,
            node=self.global_manager.node,
            scheduler=self.scheduler,
            tracer=self.tracer,
            telemetry=self.telemetry,
            monitor_interval=monitor_interval,
            sla_interval=self.global_manager.sla_interval,
            engine=self.control_plane,
        )
        self.managers[name] = manager
        self.global_manager.register(manager, depends_on=upstream)
        self.telemetry.mark(self.env.now, f"interactive launch {name}")
        result = yield self.global_manager.increase(name, units)
        if self.failover is not None:
            # A cold-start consumer catches up on the spilled history
            # before it sees live data (full-history replay).
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
        self.stages = spec.stage_configs() or default_stages(self.workload)
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
        sla_interval = k["sla_interval"] or wl.output_interval
        pipe = Pipeline(env)

        # Machine and partitions.  The simulation partition only needs the
        # writer nodes to exist as endpoints; we size the machine at
        # writers + staging to keep the topology graph small, while the
        # workload object carries the logical simulation node count.
        machine = self.machine or franklin(
            env, num_nodes=k["num_sim_writers"] + wl.staging_nodes + 2
        )
        pipe.machine = machine
        pipe.tenant = self.tenant
        prefix = f"{self.tenant}:" if self.tenant else ""
        sim_part = machine.partition(f"{prefix}sim", k["num_sim_writers"])
        staging = machine.partition(f"{prefix}staging", wl.staging_nodes)

        # seeded scatter on the messenger's retry backoff; no failover
        # block (or zero jitter) keeps the historical fixed ladder
        if spec.failover is not None and spec.failover.retry_jitter:
            from repro.evpath.channel import RetryPolicy

            retry = RetryPolicy(jitter=spec.failover.retry_jitter, seed=k["seed"])
            messenger = Messenger(env, machine.network, retry=retry)
        else:
            messenger = Messenger(env, machine.network)
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
            sla_interval=sla_interval,
            policy=self.policy,
            tracer=pipe.tracer,
            telemetry=pipe.telemetry,
            control_interval=k["control_interval"],
            overflow_horizon=k["overflow_horizon"],
            engine=pipe.control_plane,
            fates=pipe.fates,
        )
        if self.tenant is not None:
            gm.tenant = self.tenant
        pipe.global_manager = gm

        # Links: one per stage boundary, keyed by the consumer stage name.
        links: Dict[str, DataTapLink] = {}
        for stage in self.stages:
            key = stage.component
            links[key] = DataTapLink(env, messenger, name=f"->{key}")
        pipe.links = links

        # LAMMPS writers feed the stage whose upstream is None.
        first_stage = next(s for s in self.stages if s.upstream is None)
        from repro.datatap.buffer import StagingBuffer

        sim_writers = [
            DataTapWriter(
                env, messenger, sim_part[i % len(sim_part)],
                buffer=(
                    StagingBuffer(env, sim_part[i % len(sim_part)],
                                  capacity_bytes=k["sim_buffer_bytes"],
                                  name=f"lammps-w{i}.buf")
                    if k["sim_buffer_bytes"] is not None else None
                ),
                name=f"lammps-w{i}",
                retain_until_processed=k["fault_tolerance"],
            )
            for i in range(k["num_sim_writers"])
        ]
        for writer in sim_writers:
            links[first_stage.component].add_writer(writer)

        pull_sched = (
            PullScheduler(env, max_concurrent_pulls=4, defer_during_output=True)
            if k["use_pull_scheduler"]
            else None
        )
        driver = LammpsDriver(
            env, sim_writers, wl, crack_step=k["crack_step"],
            pull_scheduler=pull_sched,
        )
        pipe.driver = driver
        pipe.fates.expected = wl.total_steps

        # Patch driver writes so chunks get their stage-entry timestamp.
        self._instrument_driver(driver)

        # Containers bottom-up: output links must exist before replicas are
        # spawned, so create containers in stage order, then allocate nodes.
        downstream_of: Dict[str, List[str]] = {}
        for stage in self.stages:
            if stage.upstream is not None:
                downstream_of.setdefault(stage.upstream, []).append(stage.component)

        # Topology-aware placement (the paper's future-work extension):
        # precompute a stage -> node assignment minimizing hop-weighted data
        # movement; otherwise stages take nodes first-fit.
        planned: Optional[Dict[str, List]] = None
        if k["placement"] == "topology":
            from repro.containers.placement import (
                TopologyAwarePlacement,
                pipeline_placement_problem,
            )

            ratios = {s.component: s.spec().output_ratio for s in self.stages}
            edges = []
            for stage in self.stages:
                upstream = stage.upstream or "sim"
                volume = wl.bytes_per_step
                if stage.upstream is not None:
                    volume *= ratios.get(stage.upstream, 1.0)
                edges.append((upstream, stage.component, volume))
            problem = pipeline_placement_problem(
                machine,
                {s.component: s.units for s in self.stages},
                edges,
                staging_nodes=scheduler.peek_free(),
                sim_io_nodes=list(sim_part.nodes),
            )
            planned = TopologyAwarePlacement().plan(machine, problem).assignment

        for stage in self.stages:
            name = stage.component
            component = stage.spec()
            consumers = downstream_of.get(name, [])
            standby_names = {s.component for s in self.stages if s.standby}
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
            container = Container(
                env,
                messenger,
                component,
                stage.model,
                # the *stage* name, not component.name: several stages may run the
                # same component, and managers/recovery key on this
                name=name,
                input_link=links[name],
                output_links=output_links,
                queue_capacity=stage.queue_capacity,
                gather_count=k["num_sim_writers"] if stage.upstream is None else 1,
                # DataStager scheduling gates the pulls that cross from the
                # simulation into the staging area (the first stage); pulls
                # between staging nodes stay unscheduled.
                pull_scheduler=pull_sched if stage.upstream is None else None,
                sink_fs=fs,
                active=not stage.standby,
                natoms_hint=wl.natoms,
                writer_buffer_bytes=k["stage_buffer_bytes"],
                sla_factor=stage.sla_factor,
                retain_output=k["fault_tolerance"],
                fates=pipe.fates,
            )
            pipe.containers[name] = container

            if planned is not None:
                job = scheduler.allocate_specific(planned[name], name=name)
            else:
                job = scheduler.allocate(stage.units, name=name)
            if stage.standby:
                container.standby_nodes = list(job.nodes)
            else:
                for node in job.nodes:
                    container.add_replica(node)

            manager = LocalManager(
                env,
                messenger,
                container,
                node=job.nodes[0],
                scheduler=scheduler,
                tracer=pipe.tracer,
                telemetry=pipe.telemetry,
                monitor_interval=k["monitor_interval"],
                sla_interval=sla_interval,
                engine=pipe.control_plane,
            )
            pipe.managers[name] = manager
            gm.register(manager, depends_on=stage.upstream)

        # Completion hooks: per-container latency telemetry, pipeline-exit
        # end-to-end latency, and the CSym crack branch.
        for name, container in pipe.containers.items():
            container.on_complete = pipe.make_on_complete(name)

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

        predictor = None
        if spec.overload is not None and spec.overload.mode == "predictive":
            from repro.analytics import PredictiveConfig, PredictiveManager

            predictor = PredictiveManager(
                env, pipe,
                config=PredictiveConfig(**spec.overload.predictive_kwargs()),
            )
            predictor.attach(pipe)
            pipe.analytics = predictor

        if k["backpressure"]:
            from repro.overload import BackpressureController, LinkCredits

            for link in links.values():
                link.credits = LinkCredits(env, link)
            bp_kwargs = k["backpressure"] if isinstance(k["backpressure"], Mapping) else {}
            pipe.backpressure = BackpressureController(
                env, pipe, degradation=pipe.degradation, predictor=predictor,
                **bp_kwargs
            )
        if k["brownout"]:
            from repro.overload import BrownoutConfig, BrownoutController, NullPolicy

            # The ladder owns remediation; the legacy policy loop would
            # fight it (and its offline decisions are permanent).
            gm.policy = NullPolicy()
            bo_kwargs = k["brownout"] if isinstance(k["brownout"], Mapping) else {}
            pipe.brownout = BrownoutController(
                env, gm, config=BrownoutConfig(**bo_kwargs),
                degradation=pipe.degradation, predictor=predictor,
            )

        # Monitoring transport: direct manager-to-manager messages (default)
        # or a windowed aggregation overlay (Section III-E) whose root sits
        # on the global manager's node.
        if k["monitoring"] == "overlay":
            from repro.evpath.overlay import OverlayTree

            leaf_nodes = []
            seen_ids = set()
            for manager in pipe.managers.values():
                if manager.node.node_id not in seen_ids:
                    seen_ids.add(manager.node.node_id)
                    leaf_nodes.append(manager.node)
            overlay = OverlayTree(
                env,
                messenger,
                gm_node,
                leaf_nodes,
                on_report=lambda msg: gm.ingest_report(msg.payload),
                flush_interval=k["monitor_interval"],
            )
            pipe.monitoring_overlay = overlay
            for manager in pipe.managers.values():
                manager.send_report = (
                    lambda message, _node=manager.node: overlay.submit(_node, message)
                )

        # Fault tolerance: replica heartbeat leases into each local manager,
        # manager liveness tracked off the metric-report stream, and the
        # recovery protocols behind both.
        if k["fault_tolerance"]:
            from repro.containers.recovery import RecoveryManager

            for manager in pipe.managers.values():
                manager.enable_fault_detection(
                    lease_timeout=k["lease_timeout"],
                    heartbeat_interval=k["heartbeat_interval"],
                )
            pipe.recovery = RecoveryManager(
                env, messenger, gm,
                manager_lease_timeout=(
                    k["manager_lease_timeout"] or 4.0 * k["monitor_interval"]
                ),
            )

        # Degrade-to-disk failover: divert sheds into the spill store,
        # replay them once the consumer side is healthy again.  Attached
        # last so it sees the recovery manager and the credit-equipped
        # links; fault plans arm after build, so injected crashes hit a
        # fully wired failover path.
        if spec.failover is not None:
            from repro.adios.failover import FailoverManager, FailoverPolicy

            fo_kwargs = spec.failover.failover_kwargs()
            if spec.transport == "sst":
                fo_kwargs["live_transport"] = "sst"
            FailoverManager(env, pipe, policy=FailoverPolicy(**fo_kwargs))

        return pipe

    # -- hooks ------------------------------------------------------------------------------

    def _instrument_driver(self, driver: LammpsDriver) -> None:
        for writer in driver.writers:
            original = writer.write

            def stamped(chunk, _orig=original, _env=self.env):
                chunk.entered_stage_at = _env.now
                return _orig(chunk)

            writer.write = stamped

