"""The pipeline-as-code spec model: declarative, validated, serializable.

A :class:`PipelineSpec` is the single declarative description of one
experiment pipeline — the same role the paper's static container
configuration files play, made round-trippable (YAML <-> Python, loss
free) and validated before anything is built.  The spec captures the
*portable* half of a pipeline: topology (stages with fan-out), compute
models, workload sizing, SLA targets, buffer sizing, fault plan,
overload policy, failover block, and the tenant/quota block the fleet
overlays.  Runtime-only objects (a shared ``Machine``, a tenant name, a
management policy instance) stay out of the spec and are supplied at
build time — see :func:`repro.spec.build.build`; a concrete ``FaultPlan``
targeting live node ids arms after build through ``pipe.arm_faults``.

Specs are frozen dataclasses: value equality is spec equality, and
:meth:`PipelineSpec.to_yaml` / :meth:`PipelineSpec.from_yaml` round-trip
through a canonical dict form (sorted keys, plain scalars) so
``from_yaml(to_yaml(s)) == s`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.lammps.workload import WeakScalingWorkload
from repro.smartpointer.costs import ComputeModel


class SpecError(ValueError):
    """A malformed pipeline spec (construction- or validation-time)."""


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - yaml ships with the toolchain
        raise SpecError(
            "PyYAML is required for spec serialization "
            "(pip install pyyaml); the in-memory spec API works without it"
        ) from exc
    return yaml


#: Every knob of the spec's ``builder`` block, with its default — the one
#: place those names and defaults are declared.  The pipeline builder reads
#: it through :meth:`PipelineSpec.settings`, the validation pass rejects any
#: other key, and a spec's builder block lists only the knobs it changes.
#: Every value is a plain scalar, so the block serializes losslessly.
BUILDER_DEFAULTS: Mapping[str, Any] = MappingProxyType({
    "seed": 0,
    "control_interval": 30.0,
    "monitor_interval": 15.0,
    #: timestep from which the simulation reports a crack (None = never)
    "crack_step": None,
    "use_pull_scheduler": True,
    "overflow_occupancy": 0.35,
    "placement": "naive",
    "monitoring": "direct",
    #: caps on staging buffers (None = node-memory defaults); tightening
    #: these makes the blocking pathology reproducible at small scale
    "stage_buffer_bytes": None,
    "sim_buffer_bytes": None,
    #: chunk custody/redelivery, replica heartbeats and a RecoveryManager
    #: (lease tuning fixed in repro.containers.local_manager)
    "fault_tolerance": False,
    #: overload controllers (on/off; their tuning is fixed in
    #: repro.overload.backpressure and repro.overload.brownout)
    "backpressure": False,
    "brownout": False,
})

@dataclass(frozen=True)
class WorkloadSpec:
    """Weak-scaling workload sizing (Table II vocabulary)."""

    sim_nodes: int = 256
    staging_nodes: int = 15
    spare: int = 2
    steps: int = 8
    output_interval: float = 15.0

    def to_workload(self) -> WeakScalingWorkload:
        return WeakScalingWorkload(
            sim_nodes=self.sim_nodes,
            staging_nodes=self.staging_nodes,
            spare_staging_nodes=self.spare,
            output_interval=self.output_interval,
            total_steps=self.steps,
        )

    def as_dict(self) -> dict:
        return {
            "sim_nodes": self.sim_nodes,
            "staging_nodes": self.staging_nodes,
            "spare": self.spare,
            "steps": self.steps,
            "output_interval": self.output_interval,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return cls(**_checked_kwargs(cls, data, "workload"))


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a named analysis action on some units.

    ``upstream`` names the stage this one reads from (``None`` = reads
    the simulation stream); fan-out falls out of several stages naming
    the same upstream.  ``library`` selects the component registry the
    ``component`` name resolves in (``smartpointer`` or ``s3d``).
    """

    name: str
    units: int
    component: Optional[str] = None  # None = same as the stage name
    model: str = ComputeModel.ROUND_ROBIN.value
    upstream: Optional[str] = None
    standby: bool = False
    queue_capacity: int = 1
    sla_factor: float = 1.0
    library: str = "smartpointer"

    def component_name(self) -> str:
        return self.component if self.component is not None else self.name

    def resolve_component(self):
        """The :class:`~repro.smartpointer.component.ComponentSpec` this
        stage runs (raises :class:`SpecError` on an unknown name)."""
        registry = component_library(self.library)
        try:
            return registry[self.component_name()]
        except KeyError:
            raise SpecError(
                f"stage {self.name!r}: unknown component "
                f"{self.component_name()!r} in library {self.library!r}; "
                f"known: {sorted(registry)}"
            ) from None

    def compute_model(self) -> ComputeModel:
        try:
            return ComputeModel(self.model)
        except ValueError:
            raise SpecError(
                f"stage {self.name!r}: unknown compute model {self.model!r}; "
                f"known: {[m.value for m in ComputeModel]}"
            ) from None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "units": self.units,
            "component": self.component,
            "model": self.model,
            "upstream": self.upstream,
            "standby": self.standby,
            "queue_capacity": self.queue_capacity,
            "sla_factor": self.sla_factor,
            "library": self.library,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageSpec":
        return cls(**_checked_kwargs(cls, data, "stage"))


@dataclass(frozen=True)
class FaultEventSpec:
    """One declarative timed fault (mirrors :class:`~repro.faults.plan.FaultEvent`).

    ``targets`` index into the pipeline's staging scheduler pool
    (0 = first staging node, in allocation order) so a spec never names
    machine-global node ids it cannot know before build.
    """

    kind: str
    time: float
    targets: Tuple[int, ...] = ()
    duration: float = 0.0
    severity: float = 1.0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "targets": list(self.targets),
            "duration": self.duration,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEventSpec":
        kwargs = _checked_kwargs(cls, data, "fault event")
        if "targets" in kwargs:
            kwargs["targets"] = tuple(int(t) for t in kwargs["targets"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultSpec:
    """The spec's fault plan: a named seeded recipe, explicit events, or both.

    ``recipe`` names a registered plan factory (see
    :data:`repro.spec.build.FAULT_RECIPES`) called with ``(seed, pipe)``
    after build, so schedules can target the concrete nodes stages landed
    on; ``events`` are fixed declarative faults resolved against the
    staging pool by index.  ``seed=None`` inherits the scenario seed.
    """

    recipe: Optional[str] = None
    seed: Optional[int] = None
    events: Tuple[FaultEventSpec, ...] = ()

    def as_dict(self) -> dict:
        return {
            "recipe": self.recipe,
            "seed": self.seed,
            "events": [ev.as_dict() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        kwargs = _checked_kwargs(cls, data, "faults")
        if "events" in kwargs:
            kwargs["events"] = tuple(
                FaultEventSpec.from_dict(ev) for ev in kwargs["events"]
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class TenantSpecBlock:
    """The fleet overlay: quota floors/ceilings, priority class, SLA.

    ``reserved``/``burst`` of ``None`` mean "derive from the built pool"
    (the fleet's historical default: own pool minus two spares as the
    floor, own pool plus the shared spares as the ceiling).
    """

    priority: int = 1
    reserved: Optional[int] = None
    burst: Optional[int] = None
    sla_factor: float = 12.0
    overload_burst: bool = False

    def as_dict(self) -> dict:
        return {
            "priority": self.priority,
            "reserved": self.reserved,
            "burst": self.burst,
            "sla_factor": self.sla_factor,
            "overload_burst": self.overload_burst,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpecBlock":
        return cls(**_checked_kwargs(cls, data, "tenant"))


#: overload-policy modes a spec may name
OVERLOAD_MODES: Tuple[str, ...] = ("reactive", "predictive")


@dataclass(frozen=True)
class OverloadPolicyBlock:
    """How the pipeline handles overload.

    ``reactive`` (the default, and the paper's GM) escalates on observed
    SLA violations only; ``predictive`` attaches a
    :class:`~repro.analytics.predictive.PredictiveManager` so the
    brownout and backpressure controllers act on forecasts.  The
    forecaster's tuning is fixed (see
    :class:`~repro.analytics.predictive.PredictiveConfig`).
    """

    mode: str = "reactive"

    def as_dict(self) -> dict:
        return {"mode": self.mode}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OverloadPolicyBlock":
        return cls(**_checked_kwargs(cls, data, "overload"))


@dataclass(frozen=True)
class FailoverPolicyBlock:
    """Degrade-to-disk failover: spill instead of shed, replay to catch up.

    Attaches a :class:`~repro.adios.failover.FailoverManager` (fixed
    tuning, see :mod:`repro.adios.failover`) to the built pipeline.
    ``retry_jitter`` enables seeded scatter on the messenger's retry
    backoff (see :class:`~repro.evpath.channel.RetryPolicy`), keyed on the
    pipeline seed so retry schedules decorrelate across nodes but stay
    deterministic per seed.
    """

    retry_jitter: float = 0.0

    def as_dict(self) -> dict:
        return {"retry_jitter": self.retry_jitter}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailoverPolicyBlock":
        return cls(**_checked_kwargs(cls, data, "failover"))


@dataclass(frozen=True)
class PipelineSpec:
    """One pipeline, declaratively.  See the module docstring.

    ``stages=None`` means the paper's default Figure 7-9 stage mix for the
    workload (:func:`repro.containers.pipeline.default_stages`).
    ``builder`` holds the knobs this spec changes from
    :data:`BUILDER_DEFAULTS`; it is read-only, so a cached spec (see
    :func:`repro.spec.build.load_preset`) cannot be mutated in place —
    derive a new one with :meth:`override`.
    """

    name: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    stages: Optional[Tuple[StageSpec, ...]] = None
    builder: Mapping[str, Any] = field(default_factory=dict)
    #: end-to-end SLA target as a multiple of the output interval (used by
    #: fleet accounting and reporting; None = unspecified)
    sla: Optional[float] = None
    faults: Optional[FaultSpec] = None
    tenant: Optional[TenantSpecBlock] = None
    #: overload-policy selection (None = reactive, the historical default)
    overload: Optional[OverloadPolicyBlock] = None
    #: degrade-to-disk failover (None = lossy sheds, the paper's behavior)
    failover: Optional[FailoverPolicyBlock] = None

    def __post_init__(self):
        # a read-only copy: the spec hashes/compares by value, and no
        # holder of a (possibly cached) spec can change it under others
        object.__setattr__(self, "builder", _frozen(self.builder))
        if self.stages is not None:
            object.__setattr__(self, "stages", tuple(self.stages))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PipelineSpec):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(self.to_yaml())

    # -- derivation -----------------------------------------------------------------

    def override(
        self,
        workload: Optional[Mapping[str, Any]] = None,
        builder: Optional[Mapping[str, Any]] = None,
        drop_builder: Tuple[str, ...] = (),
        **top_level: Any,
    ) -> "PipelineSpec":
        """A new spec with field-level overrides (the overlay primitive).

        ``workload``/``builder`` merge into the nested blocks;
        ``drop_builder`` removes keys (so an overlay can *unset* e.g. the
        overload controllers); other keyword arguments replace top-level
        fields (``name``, ``stages``, ``sla``, ``faults``,
        ``tenant``).
        """
        spec = self
        if workload:
            spec = replace(spec, workload=replace(spec.workload, **dict(workload)))
        merged = dict(spec.builder)
        for key in drop_builder:
            merged.pop(key, None)
        if builder:
            merged.update(builder)
        spec = replace(spec, builder=merged)
        if top_level:
            spec = replace(spec, **top_level)
        return spec

    # -- builder views --------------------------------------------------------------

    def settings(self) -> Dict[str, Any]:
        """Every builder knob: :data:`BUILDER_DEFAULTS` under this spec's
        builder block (a fresh dict; nested mappings stay read-only)."""
        return {**BUILDER_DEFAULTS, **self.builder}

    # -- serialization ---------------------------------------------------------------

    def as_dict(self) -> dict:
        """The canonical, YAML-ready dict form (plain scalars only)."""
        return {
            "name": self.name,
            "workload": self.workload.as_dict(),
            "stages": (
                None if self.stages is None
                else [s.as_dict() for s in self.stages]
            ),
            "builder": _thawed(self.builder),
            "sla": self.sla,
            "faults": None if self.faults is None else self.faults.as_dict(),
            "tenant": None if self.tenant is None else self.tenant.as_dict(),
            "overload": None if self.overload is None else self.overload.as_dict(),
            "failover": None if self.failover is None else self.failover.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"a pipeline spec must be a mapping, got {type(data).__name__}")
        kwargs = _checked_kwargs(cls, data, "pipeline")
        if "name" not in kwargs:
            raise SpecError("a pipeline spec needs a name")
        if kwargs.get("workload") is not None:
            kwargs["workload"] = WorkloadSpec.from_dict(kwargs["workload"])
        else:
            kwargs.pop("workload", None)
        if kwargs.get("stages") is not None:
            kwargs["stages"] = tuple(
                StageSpec.from_dict(s) for s in kwargs["stages"]
            )
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultSpec.from_dict(kwargs["faults"])
        if kwargs.get("tenant") is not None:
            kwargs["tenant"] = TenantSpecBlock.from_dict(kwargs["tenant"])
        if kwargs.get("overload") is not None:
            kwargs["overload"] = OverloadPolicyBlock.from_dict(kwargs["overload"])
        if kwargs.get("failover") is not None:
            kwargs["failover"] = FailoverPolicyBlock.from_dict(kwargs["failover"])
        return cls(**kwargs)

    def to_yaml(self) -> str:
        """Canonical YAML (sorted keys, block style) — stable under
        round-trip: ``from_yaml(s.to_yaml()).to_yaml() == s.to_yaml()``."""
        return _yaml().safe_dump(
            self.as_dict(), sort_keys=True, default_flow_style=False
        )

    @classmethod
    def from_yaml(cls, text: str) -> "PipelineSpec":
        try:
            data = _yaml().safe_load(text)
        except Exception as exc:
            raise SpecError(f"invalid YAML: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "PipelineSpec":
        from pathlib import Path

        text = Path(path).read_text()
        spec = cls.from_yaml(text)
        return spec

    def save(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_yaml())

    # -- validation (delegates) -------------------------------------------------------

    def validate(self) -> "PipelineSpec":
        """Raise :class:`SpecError` if the spec is malformed; returns self."""
        from repro.spec.validate import validate

        validate(self)
        return self


def component_library(name: str) -> Dict[str, Any]:
    """Component registry by library name (``smartpointer`` / ``s3d``)."""
    if name == "smartpointer":
        from repro.smartpointer.component import SMARTPOINTER_COMPONENTS

        return SMARTPOINTER_COMPONENTS
    if name == "s3d":
        from repro.s3d.components import S3D_COMPONENTS

        return S3D_COMPONENTS
    raise SpecError(
        f"unknown component library {name!r}; known: ['s3d', 'smartpointer']"
    )


def _frozen(value):
    """A read-only deep copy of a builder mapping (nested mappings too)."""
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: _frozen(value[k]) for k in sorted(value)})
    return value


def _thawed(value):
    """A plain, mutable deep copy of a (frozen) builder mapping."""
    if isinstance(value, (dict, MappingProxyType)):
        return {k: _thawed(v) for k, v in value.items()}
    return value


def _checked_kwargs(cls, data: Mapping[str, Any], what: str) -> dict:
    """Mapping -> kwargs, rejecting unknown keys with a pointed error."""
    if not isinstance(data, Mapping):
        raise SpecError(f"a {what} block must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"unknown {what} field(s) {unknown}; known: {sorted(known)}"
        )
    return dict(data)
