"""Multi-tenant fleets: N pipelines on one machine under one arbiter.

A :class:`Fleet` runs many tenant pipelines concurrently in a single
simulation :class:`~repro.simkernel.Environment` on a single shared
machine.  Each tenant gets its own partitions (``<tenant>:sim`` /
``<tenant>:staging``), its own scheduler (perf-namespaced
``fleet.<tenant>.*``), its own sharded GlobalManager, and — where the
preset enables them — its own backpressure and brownout controllers.  The
only shared mutable resource is the spare pool, owned by the
:class:`~repro.fleet.arbiter.FleetArbiter`.

:func:`build_mixed_fleet` is the canonical construction: a deterministic
fig7/overload/S3D preset cycle with tenant ``t00`` as the deliberately
overloaded, lowest-priority tenant — the configuration the acceptance
tests check (t00 browns out; nobody else misses their SLA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simkernel import Environment
from repro.simkernel.errors import SimulationError
from repro.cluster.presets import franklin
from repro.containers.pipeline import Pipeline
from repro.fleet.arbiter import FleetArbiter
from repro.fleet.quota import TenantQuota
from repro.lammps.driver import NUM_SIM_WRITERS
from repro.monitoring.metrics import Telemetry
from repro.perf.registry import REGISTRY as PERF
from repro.spec.build import build as build_spec, bundled_spec_names, load_preset
from repro.spec.model import PipelineSpec, TenantSpecBlock

#: staging nodes each preset's *default* build carves from the shared
#: machine (next to its NUM_SIM_WRITERS simulation nodes) — read off the
#: bundled spec library, so the machine sizing can never drift from
#: :mod:`repro.spec.bundled`.  Per-tenant workload overrides shrink the
#: carved partitions, never the reservation.
PRESET_FOOTPRINT: Dict[str, int] = {
    name: load_preset(name).workload.staging_nodes
    for name in bundled_spec_names()
}


@dataclass
class TenantSpec:
    """What one tenant runs and under which quota/SLA."""

    name: str
    preset: str = "fig7"
    steps: int = 8
    quota: Optional[TenantQuota] = None
    priority: int = 1
    #: arm the seeded overload burst against this tenant's analysis stages
    overload_burst: bool = False
    #: end-to-end SLA, as a multiple of the workload's output interval.
    #: 12x leaves headroom over the unloaded fig7 end-to-end latency
    #: (~7x) for the queueing tail a tenant sees when its node-increase
    #: request is denied and must wait out a rebalance cycle.
    sla_factor: float = 12.0
    #: overlay merged into the preset spec's workload block
    workload: dict = field(default_factory=dict)

    def to_spec(self) -> PipelineSpec:
        """The per-tenant :class:`PipelineSpec` overlay: the bundled preset
        spec with this tenant's steps/workload overlay merged in and the
        quota/SLA block attached."""
        if self.preset not in PRESET_FOOTPRINT:
            raise ValueError(
                f"unknown fleet preset {self.preset!r}; "
                f"known: {sorted(PRESET_FOOTPRINT)}"
            )
        quota = self.quota
        tenant = TenantSpecBlock(
            priority=self.priority,
            reserved=None if quota is None else quota.reserved,
            burst=None if quota is None else quota.burst,
            sla_factor=self.sla_factor,
            overload_burst=self.overload_burst,
        )
        return load_preset(self.preset).override(
            workload={**self.workload, "steps": self.steps}, tenant=tenant,
        )


@dataclass
class Tenant:
    """One running tenant: its spec and its wired pipeline."""

    spec: TenantSpec
    pipe: Pipeline

    @property
    def name(self) -> str:
        return self.spec.name

    def delivered_steps(self) -> int:
        return len({step for _, step, _ in self.pipe.end_to_end})

    def shed_steps(self) -> int:
        return len(self.pipe.shed_ledger.steps())

    def sla_seconds(self) -> float:
        wl = self.pipe.driver.workload
        return self.spec.sla_factor * wl.output_interval

    def sla_compliance(self) -> float:
        """Fraction of timesteps delivered end-to-end within the SLA.

        Shed timesteps count against compliance: a browned-out tenant
        trades compliance for survival, and that trade must show up here.
        """
        wl = self.pipe.driver.workload
        sla = self.sla_seconds()
        in_sla = {
            step for _, step, latency in self.pipe.end_to_end if latency <= sla
        }
        return len(in_sla) / wl.total_steps

    def degradations(self) -> int:
        return len(self.pipe.degradation.steps)

    def summary(self) -> dict:
        return {
            "tenant": self.name,
            "preset": self.spec.preset,
            "priority": self.spec.priority,
            "finished": self.pipe.driver.finished.triggered,
            "delivered": self.delivered_steps(),
            "shed": self.shed_steps(),
            "sla_compliance": round(self.sla_compliance(), 4),
            "degradations": self.degradations(),
        }


class Fleet:
    """The shared-machine container for tenants + arbiter; see module doc."""

    def __init__(self, env: Environment, machine, arbiter: FleetArbiter,
                 telemetry: Optional[Telemetry] = None):
        self.env = env
        self.machine = machine
        self.arbiter = arbiter
        self.telemetry = telemetry or arbiter.telemetry
        self.tenants: Dict[str, Tenant] = {}
        self.fault_injector = None
        self._stopped = False

    def add_tenant(self, spec: TenantSpec, pipe: Pipeline,
                   quota: TenantQuota) -> Tenant:
        if spec.name in self.tenants:
            raise SimulationError(f"tenant {spec.name!r} already in fleet")
        pipe.fleet = self
        self.arbiter.register(spec.name, pipe.global_manager, quota)
        tenant = Tenant(spec, pipe)
        self.tenants[spec.name] = tenant
        return tenant

    # -- execution ---------------------------------------------------------------------

    def run(self, settle: float = 60.0,
            deadline: Optional[float] = None) -> Dict[str, bool]:
        """Run until every tenant driver finishes (or ``deadline``).

        Mirrors :meth:`Pipeline.run` at fleet granularity: one env.run over
        the union of drivers, one settle window, one teardown, one perf
        publish.  Returns tenant -> driver-finished.
        """
        if not self.tenants:
            raise SimulationError("fleet has no tenants")
        drivers = [t.pipe.driver for t in self.tenants.values()]
        if deadline is None:
            deadline = 4.0 * max(
                d.workload.total_steps * d.workload.output_interval
                for d in drivers
            )
        with PERF.timer("fleet.run"):
            done = self.env.all_of([d.finished for d in drivers])
            self.env.run(until=self.env.any_of(
                [done, self.env.timeout(deadline)]
            ))
            finished = {
                name: t.pipe.driver.finished.triggered
                for name, t in self.tenants.items()
            }
            self.env.run(until=self.env.now + settle)
            self.stop()
        self.env.publish_perf(PERF)
        return finished

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for tenant in self.tenants.values():
            tenant.pipe.stop()
        self.arbiter.stop()

    # -- faults ------------------------------------------------------------------------

    def arm_faults(self, plan):
        """One injector over the whole machine; crashes fan out to every
        tenant (quarantine in the owning scheduler, kill resident replicas)."""
        from repro.faults import ClusterFaultInjector, NetworkFaultState

        faults = self.machine.network.faults = NetworkFaultState(self.env, plan)
        for tenant in self.tenants.values():
            tenant.pipe.arm_links(faults)
        injector = ClusterFaultInjector(self.env, plan, self.machine.nodes)
        injector.on_crash(self._on_node_crash)
        injector.start()
        self.fault_injector = injector
        return injector

    def _on_node_crash(self, node) -> None:
        for tenant in self.tenants.values():
            tenant.pipe.scheduler.mark_failed(node)  # a no-op outside its pool
            tenant.pipe._on_node_crash(node)

    def summaries(self) -> List[dict]:
        return [t.summary() for _, t in sorted(self.tenants.items())]


# -- construction ----------------------------------------------------------------------


def build_fleet(env: Environment, specs: List[TenantSpec], spares: int = 4,
                rebalance_interval: float = 60.0) -> Fleet:
    """Build a fleet: shared machine, arbiter spare pool, one pipeline per
    spec (each compiled from its :meth:`TenantSpec.to_spec` overlay under
    its own tenant-prefixed partitions).

    Rejects, before any node is carved: duplicate tenant names, unknown
    presets, and aggregate quota floors the machine could never honor
    (Σ reserved > Σ tenant staging + shared spares).
    """
    if not specs:
        raise ValueError("a fleet needs at least one tenant spec")
    names = [spec.name for spec in specs]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ValueError(
            f"duplicate tenant name(s) {dupes}: every tenant needs its own "
            f"partitions, scheduler, and arbiter registration"
        )
    total = spares + 2
    resolved = []  # (TenantSpec, PipelineSpec) in slate order
    for spec in specs:
        pspec = spec.to_spec()  # raises ValueError on an unknown preset
        total += NUM_SIM_WRITERS + PRESET_FOOTPRINT[spec.preset]
        resolved.append((spec, pspec))
    # Aggregate floor check: the floors a steal may never cross must fit in
    # the capacity the arbiter conserves (every tenant's own staging pool
    # plus the shared spares), or some floor could never be honored.
    capacity = spares + sum(p.workload.staging_nodes for _, p in resolved)
    floors = sum(
        s.quota.reserved if s.quota is not None
        else max(0, p.workload.staging_nodes - 2)
        for s, p in resolved
    )
    if floors > capacity:
        raise ValueError(
            f"aggregate quota floors reserve {floors} staging nodes but the "
            f"fleet only has {capacity} (tenant pools + {spares} shared "
            f"spares); lower some tenant's reserved floor or add capacity"
        )
    machine = franklin(env, num_nodes=total)
    spare_part = machine.partition("fleet:spares", spares)
    telemetry = Telemetry()
    arbiter = FleetArbiter(
        env, list(spare_part.nodes), telemetry=telemetry,
        rebalance_interval=rebalance_interval,
    )
    fleet = Fleet(env, machine, arbiter, telemetry)
    for spec, pspec in resolved:
        pipe = build_spec(env, pspec, machine=machine, tenant=spec.name)
        base = len(pipe.scheduler.pool.nodes)
        quota = spec.quota or TenantQuota(
            # by default a tenant's own spare staging nodes (2 per preset)
            # are up for grabs, and it may borrow the whole shared pool
            reserved=max(0, base - 2),
            burst=base + spares,
            priority=spec.priority,
        )
        fleet.add_tenant(spec, pipe, quota)
    return fleet


def mixed_specs(tenants: int, steps: int = 6) -> List[TenantSpec]:
    """The canonical mixed-tenant slate: ``t00`` is the deliberately
    overloaded, lowest-priority tenant (tight-buffer preset, seeded burst
    plan, backpressure + brownout); everyone else alternates the fig7 and
    S3D stage mixes.  The acceptance property: t00 browns out — sheds under
    its SLA — while no other tenant misses theirs."""
    if tenants < 1:
        raise ValueError(f"need at least one tenant, got {tenants}")
    specs = [TenantSpec(
        name="t00",
        preset="overload",
        steps=steps,
        # lowest priority: the victim cannot raid its well-behaved peers
        priority=1,
        overload_burst=True,
    )]
    for i in range(1, tenants):
        fig7 = bool(i % 2)
        specs.append(TenantSpec(
            name=f"t{i:02d}",
            preset="fig7" if fig7 else "s3d",
            steps=steps,
            priority=2,
            # fig7 tenants carry no local spares: their recovery ladder
            # *must* borrow replacement nodes from the fleet arbiter —
            # the sharded version of the single-pipeline spare pool
            workload=dict(staging_nodes=13, spare=0) if fig7 else {},
        ))
    return specs


def build_mixed_fleet(env: Environment, tenants: int, steps: int = 6,
                      spares: int = 4,
                      rebalance_interval: float = 60.0) -> Fleet:
    return build_fleet(env, mixed_specs(tenants, steps=steps), spares=spares,
                       rebalance_interval=rebalance_interval)
