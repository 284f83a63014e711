"""Compile a :class:`~repro.spec.model.PipelineSpec` into a wired Pipeline.

:func:`build` is the one construction path: it validates the spec once and
hands it to :class:`~repro.containers.pipeline.PipelineBuilder`, which
reads the spec itself — the workload, the stages, the builder block over
:data:`~repro.spec.model.BUILDER_DEFAULTS`, and the ``overload`` and
``failover`` blocks.

Only runtime objects that cannot live in a serialized spec are passed
alongside it: a shared fleet ``machine``, a ``tenant`` name, and a
management ``policy`` instance —
``build(env, spec, machine=m, tenant="t03")``.  A concrete fault plan
targets node ids that exist only after build; arm it with
``pipe.arm_faults(plan)`` (or declare it in the spec's ``faults`` block
and resolve it with :func:`resolve_fault_plan`).

:func:`build_preset` builds a bundled spec by name, with optional
workload/builder overlays.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from repro.simkernel import Environment
from repro.cluster.machine import Machine
from repro.containers.pipeline import Pipeline, PipelineBuilder
from repro.containers.policy import ManagementPolicy
from repro.faults.plan import FaultKind, FaultPlan
from repro.spec.model import PipelineSpec, SpecError

#: bundled spec files: the preset library (see :func:`bundled_spec_names`)
SPEC_DIR = Path(__file__).resolve().parent / "bundled"

#: name -> seeded plan factory ``(seed, pipe) -> FaultPlan``; specs refer
#: to recipes by name so fault schedules can target the concrete nodes
#: stages landed on.  Populated by :func:`register_fault_recipe` at import
#: of the owning modules (see :func:`_ensure_recipes`).
FAULT_RECIPES: Dict[str, Callable] = {}


def register_fault_recipe(name: str):
    """Decorator: register a ``(seed, pipe) -> FaultPlan`` factory."""

    def wrap(fn):
        FAULT_RECIPES[name] = fn
        return fn

    return wrap


def _ensure_recipes() -> None:
    """Import the modules that register the standard recipes."""
    import repro.dst.scenario  # noqa: F401 - registers "smoke", "links"
    import repro.overload.scenario  # noqa: F401 - registers "overload_burst"
    import repro.spec.fuzz  # noqa: F401 - registers "fuzz_chaos"


def build(
    env: Environment,
    spec: PipelineSpec,
    *,
    machine: Optional[Machine] = None,
    tenant: Optional[str] = None,
    policy: Optional[ManagementPolicy] = None,
) -> Pipeline:
    """Validate ``spec`` and compile it into a fully wired :class:`Pipeline`."""
    spec.validate()
    pipe = PipelineBuilder(
        env, spec, machine=machine, tenant=tenant, policy=policy
    ).build()
    pipe.spec = spec
    return pipe


def resolve_fault_plan(
    spec: PipelineSpec, seed: Optional[int], pipe: Pipeline
) -> Optional[FaultPlan]:
    """Concrete :class:`FaultPlan` from the spec's fault block (or None).

    Recipe faults are generated against the built pipeline; declarative
    events are resolved from staging-pool indices to the concrete node
    ids of the pipeline's scheduler pool, in allocation order.
    """
    faults = spec.faults
    if faults is None:
        return None
    eff_seed = faults.seed if faults.seed is not None else (seed or 0)
    plan: Optional[FaultPlan] = None
    if faults.recipe is not None:
        _ensure_recipes()
        try:
            factory = FAULT_RECIPES[faults.recipe]
        except KeyError:
            raise SpecError(
                f"unknown fault recipe {faults.recipe!r}; known: "
                f"{sorted(FAULT_RECIPES)}"
            ) from None
        plan = factory(eff_seed, pipe)
    if faults.events:
        if plan is None:
            plan = FaultPlan(seed=eff_seed)
        pool = [n.node_id for n in pipe.scheduler.pool.nodes]
        for ev in faults.events:
            targets = tuple(pool[t] for t in ev.targets)
            plan.add(FaultKind(ev.kind), ev.time, targets,
                     duration=ev.duration, severity=ev.severity)
    return plan


# -- the bundled preset library --------------------------------------------------------


def bundled_spec_path(name: str) -> Path:
    path = SPEC_DIR / f"{name}.yaml"
    if not path.is_file():
        raise SpecError(
            f"no bundled spec {name!r}; available: {bundled_spec_names()}"
        )
    return path


def bundled_spec_names() -> list:
    return sorted(p.stem for p in SPEC_DIR.glob("*.yaml"))


def load_preset(name: str) -> PipelineSpec:
    """Load (and cache) a bundled spec by name (see :func:`bundled_spec_names`).

    The cached spec is shared by every caller in the process; it is
    read-only, so overlays go through :meth:`PipelineSpec.override`.
    """
    cached = _PRESET_CACHE.get(name)
    if cached is None:
        cached = PipelineSpec.load(bundled_spec_path(name))
        _PRESET_CACHE[name] = cached
    return cached


_PRESET_CACHE: Dict[str, PipelineSpec] = {}


def build_preset(
    env: Environment,
    name: str,
    *,
    workload: Optional[Mapping[str, Any]] = None,
    builder: Optional[Mapping[str, Any]] = None,
    machine: Optional[Machine] = None,
    tenant: Optional[str] = None,
) -> Pipeline:
    """Build the bundled spec ``name``, with ``workload``/``builder``
    overlays merged into its blocks (see :meth:`PipelineSpec.override`)."""
    spec = load_preset(name).override(workload=workload, builder=builder)
    return build(env, spec, machine=machine, tenant=tenant)
