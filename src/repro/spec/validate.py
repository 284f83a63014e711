"""Spec validation: reject malformed pipelines before anything is built.

Every check raises :class:`~repro.spec.model.SpecError` with an error
pointed enough to fix the spec from the message alone — naming the stage,
field, and bound involved.  The pass covers:

* workload sizing (positive counts, spares within the staging allocation);
* stage topology (duplicate names, zero-unit stages, dangling upstream
  references, cycles, exactly one simulation-fed root, standby stages
  must branch off a live stage);
* component/model resolution (unknown library, unknown component, a
  compute model the component does not support);
* builder overrides (whitelisted keys only, bool overload switches,
  buffer sizes of at least one timestep so the pipeline can always make
  forward progress);
* fault blocks (kind vocabulary and per-kind argument validation, reusing
  the :class:`~repro.faults.plan.FaultPlan` rules; staging-pool-relative
  target indices in range);
* the tenant/quota block (floor within the tenant's own staging pool —
  the machine capacity it actually has — and floor <= ceiling);
* the overload and failover blocks (mode vocabulary, retry-jitter range,
  and the builder controllers each needs).
"""

from __future__ import annotations

from typing import List

from repro.lammps.driver import NUM_SIM_WRITERS
from repro.spec.model import (
    BUILDER_DEFAULTS,
    OVERLOAD_MODES,
    FaultSpec,
    PipelineSpec,
    SpecError,
    WorkloadSpec,
)

#: builder keys that must be positive numbers when present
_POSITIVE_BUILDER_KEYS = ("control_interval", "monitor_interval")


def validate(spec: PipelineSpec) -> PipelineSpec:
    """Raise :class:`SpecError` on the first problem found; returns spec."""
    if not spec.name or not isinstance(spec.name, str):
        raise SpecError("a pipeline spec needs a non-empty string name")
    _validate_workload(spec.workload)
    _validate_builder(spec)
    if spec.stages is not None:
        _validate_stages(spec)
    if spec.sla is not None and spec.sla <= 0:
        raise SpecError(f"sla must be a positive multiple of the output interval, got {spec.sla}")
    if spec.faults is not None:
        _validate_faults(spec, spec.faults)
    if spec.tenant is not None:
        _validate_tenant(spec)
    if spec.overload is not None:
        _validate_overload(spec)
    if spec.failover is not None:
        _validate_failover(spec)
    return spec


def _validate_workload(wl: WorkloadSpec) -> None:
    if wl.sim_nodes <= 0:
        raise SpecError(f"workload.sim_nodes must be positive, got {wl.sim_nodes}")
    if wl.staging_nodes <= 0:
        raise SpecError(f"workload.staging_nodes must be positive, got {wl.staging_nodes}")
    if wl.spare < 0 or wl.spare > wl.staging_nodes:
        raise SpecError(
            f"workload.spare must be within the staging allocation "
            f"(0..{wl.staging_nodes}), got {wl.spare}"
        )
    if wl.steps <= 0:
        raise SpecError(f"workload.steps must be positive, got {wl.steps}")
    if wl.output_interval <= 0:
        raise SpecError(
            f"workload.output_interval must be positive, got {wl.output_interval}"
        )


def _validate_stages(spec: PipelineSpec) -> None:
    stages = spec.stages
    if not stages:
        raise SpecError("stages, when given, must name at least one stage")
    names: List[str] = [s.name for s in stages]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise SpecError(f"duplicate stage name(s): {dupes}")
    by_name = {s.name: s for s in stages}

    total_units = 0
    for stage in stages:
        if stage.units <= 0:
            raise SpecError(
                f"stage {stage.name!r}: units must be >= 1, got {stage.units} "
                f"(a zero-node stage can never serve its queue)"
            )
        if stage.queue_capacity < 1:
            raise SpecError(
                f"stage {stage.name!r}: queue_capacity must be >= 1, "
                f"got {stage.queue_capacity}"
            )
        if stage.sla_factor <= 0:
            raise SpecError(
                f"stage {stage.name!r}: sla_factor must be positive, "
                f"got {stage.sla_factor}"
            )
        component = stage.resolve_component()  # raises on unknown name/library
        model = stage.compute_model()          # raises on unknown model
        if model not in component.compute_models:
            raise SpecError(
                f"stage {stage.name!r}: component {component.name!r} does not "
                f"support compute model {model.value!r}; supported: "
                f"{[m.value for m in component.compute_models]}"
            )
        if stage.upstream is not None and stage.upstream not in by_name:
            raise SpecError(
                f"stage {stage.name!r}: unknown upstream stage "
                f"{stage.upstream!r}; known stages: {sorted(by_name)}"
            )
        if stage.upstream == stage.name:
            raise SpecError(f"stage {stage.name!r} names itself as upstream")
        total_units += stage.units

    roots = [s for s in stages if s.upstream is None]
    if not roots:
        raise SpecError(
            "no root stage: exactly one stage must read the simulation "
            "stream (upstream: null)"
        )
    if len(roots) > 1:
        raise SpecError(
            f"multiple root stages {sorted(s.name for s in roots)}: the "
            f"simulation feeds exactly one stage; give the others an upstream"
        )
    if roots[0].standby:
        raise SpecError(
            f"root stage {roots[0].name!r} cannot be standby: a standby "
            f"stage activates by joining its upstream's output link"
        )
    if roots[0].compute_model().value != "tree":
        raise SpecError(
            f"root stage {roots[0].name!r} gathers {NUM_SIM_WRITERS} partial "
            f"writes per timestep (one per simulation writer) and must use "
            f"the 'tree' compute model, not {roots[0].model!r}"
        )

    # Cycle check: walk each stage's upstream chain; a repeat inside one
    # chain is a cycle (dangling refs were rejected above).
    for stage in stages:
        seen = {stage.name}
        cursor = stage.upstream
        while cursor is not None:
            if cursor in seen:
                cycle = " -> ".join([*sorted(seen), cursor])
                raise SpecError(
                    f"stage topology contains a cycle through {cursor!r} "
                    f"({cycle}); the pipeline must be a DAG"
                )
            seen.add(cursor)
            cursor = by_name[cursor].upstream

    # Capacity: the staging pool must fit every stage allocation.
    if total_units > spec.workload.staging_nodes:
        raise SpecError(
            f"stage allocations need {total_units} staging nodes but the "
            f"workload provides only {spec.workload.staging_nodes}"
        )


def _validate_builder(spec: PipelineSpec) -> None:
    unknown = sorted(set(spec.builder) - set(BUILDER_DEFAULTS))
    if unknown:
        raise SpecError(
            f"unknown builder key(s) {unknown}; declarable keys: "
            f"{sorted(BUILDER_DEFAULTS)} (runtime-only objects are passed to "
            f"build(...) instead)"
        )
    b = spec.builder
    for key in _POSITIVE_BUILDER_KEYS:
        value = b.get(key)
        if value is not None and value <= 0:
            raise SpecError(f"builder.{key} must be positive, got {value}")
    if b.get("placement") not in (None, "naive", "topology"):
        raise SpecError(
            f"builder.placement must be 'naive' or 'topology', got {b['placement']!r}"
        )
    if b.get("monitoring") not in (None, "direct", "overlay"):
        raise SpecError(
            f"builder.monitoring must be 'direct' or 'overlay', got {b['monitoring']!r}"
        )
    for key in ("backpressure", "brownout"):
        value = b.get(key)
        if value is not None and not isinstance(value, bool):
            raise SpecError(
                f"builder.{key} must be a bool (the controller's tuning is "
                f"fixed), got {type(value).__name__}"
            )

    # Buffer floors: a buffer smaller than one timestep's chunk can never
    # admit a write, wedging the pipeline at step zero.  The sim-side
    # buffers are per writer (each carries 1/num_writers of a step).
    wl = spec.workload.to_workload()
    sim_floor = wl.bytes_per_step / NUM_SIM_WRITERS
    sim_buffer = b.get("sim_buffer_bytes")
    if sim_buffer is not None and sim_buffer < sim_floor:
        raise SpecError(
            f"builder.sim_buffer_bytes = {sim_buffer:.0f} is below one "
            f"timestep per writer ({sim_floor:.0f} bytes): the producer "
            f"could never complete a write"
        )
    stage_buffer = b.get("stage_buffer_bytes")
    if stage_buffer is not None and stage_buffer < wl.bytes_per_step:
        raise SpecError(
            f"builder.stage_buffer_bytes = {stage_buffer:.0f} is below one "
            f"timestep ({wl.bytes_per_step:.0f} bytes): a stage writer "
            f"could never buffer a full step"
        )


def _validate_faults(spec: PipelineSpec, faults: FaultSpec) -> None:
    from repro.faults.plan import FaultKind, FaultPlan

    if faults.recipe is not None:
        from repro.spec.build import FAULT_RECIPES, _ensure_recipes

        _ensure_recipes()
        if faults.recipe not in FAULT_RECIPES:
            raise SpecError(
                f"unknown fault recipe {faults.recipe!r}; known: "
                f"{sorted(FAULT_RECIPES)}"
            )
    kinds = {k.value for k in FaultKind}
    pool = spec.workload.staging_nodes
    probe = FaultPlan(seed=0)
    for i, ev in enumerate(faults.events):
        if ev.kind not in kinds:
            raise SpecError(
                f"faults.events[{i}]: unknown fault kind {ev.kind!r}; "
                f"known: {sorted(kinds)}"
            )
        out_of_range = sorted(t for t in ev.targets if not 0 <= t < pool)
        if out_of_range:
            raise SpecError(
                f"faults.events[{i}]: target indices {out_of_range} outside "
                f"the staging pool (0..{pool - 1}); targets index the "
                f"scheduler's staging nodes in allocation order"
            )
        try:
            # reuse the canonical per-kind argument validation
            probe.add(FaultKind(ev.kind), ev.time, ev.targets,
                      duration=ev.duration, severity=ev.severity)
        except ValueError as exc:
            raise SpecError(f"faults.events[{i}]: {exc}") from None


def _validate_overload(spec: PipelineSpec) -> None:
    ov = spec.overload
    if ov.mode not in OVERLOAD_MODES:
        raise SpecError(
            f"overload.mode must be one of {list(OVERLOAD_MODES)}, got {ov.mode!r}"
        )
    if ov.mode == "predictive":
        b = spec.builder
        if not b.get("backpressure") and not b.get("brownout"):
            raise SpecError(
                "overload.mode: predictive needs a controller to feed — "
                "enable builder.backpressure and/or builder.brownout"
            )


def _validate_failover(spec: PipelineSpec) -> None:
    fo = spec.failover
    if not 0.0 <= fo.retry_jitter <= 1.0:
        raise SpecError(
            f"failover.retry_jitter is a relative scatter and must be in "
            f"[0, 1], got {fo.retry_jitter}"
        )
    if not spec.builder.get("backpressure"):
        raise SpecError(
            "failover needs link credits to detect collapse — enable "
            "builder.backpressure"
        )


def _validate_tenant(spec: PipelineSpec) -> None:
    tenant = spec.tenant
    if tenant.priority < 1:
        raise SpecError(f"tenant.priority must be >= 1, got {tenant.priority}")
    if tenant.sla_factor <= 0:
        raise SpecError(f"tenant.sla_factor must be positive, got {tenant.sla_factor}")
    reserved = tenant.reserved
    if reserved is not None:
        if reserved < 0:
            raise SpecError(f"tenant.reserved must be >= 0, got {reserved}")
        if reserved > spec.workload.staging_nodes:
            raise SpecError(
                f"tenant.reserved = {reserved} exceeds the tenant's own "
                f"staging capacity ({spec.workload.staging_nodes} nodes): "
                f"the floor could never be satisfied"
            )
    if tenant.burst is not None:
        floor = reserved if reserved is not None else 0
        if tenant.burst < floor:
            raise SpecError(
                f"tenant.burst ({tenant.burst}) must be >= tenant.reserved "
                f"({floor})"
            )
