"""repro.spec — pipeline-as-code: declarative, validated pipeline specs.

The paper configures its I/O containers statically — topology, placement,
QoS policy fixed before launch.  This package is that idea made
first-class: a :class:`PipelineSpec` describes a pipeline declaratively
(stages, compute models, workload sizing, SLA targets, buffer sizing,
fault plan, overload policy, failover block, tenant/quota block), round-trips
YAML <-> Python losslessly, is validated with pointed errors before
anything is built, and compiles to a wired
:class:`~repro.containers.pipeline.Pipeline` through one entry point,
:func:`build`.

The bundled specs under ``repro/spec/bundled/`` are the preset library
(see :func:`bundled_spec_names`); :func:`build_preset` builds one by name
with optional workload/builder overlays.  :mod:`repro.spec.fuzz`
generates random-but-valid specs from a splitmix64 seed — the topology
dimension of the DST sweep.
"""

from repro.spec.model import (
    BUILDER_DEFAULTS,
    OVERLOAD_MODES,
    FailoverPolicyBlock,
    FaultEventSpec,
    FaultSpec,
    OverloadPolicyBlock,
    PipelineSpec,
    SpecError,
    StageSpec,
    TenantSpecBlock,
    WorkloadSpec,
    component_library,
)
from repro.spec.validate import validate
from repro.spec.build import (
    FAULT_RECIPES,
    SPEC_DIR,
    build,
    build_preset,
    bundled_spec_names,
    bundled_spec_path,
    load_preset,
    register_fault_recipe,
    resolve_fault_plan,
)

__all__ = [
    "BUILDER_DEFAULTS",
    "OVERLOAD_MODES",
    "FailoverPolicyBlock",
    "FaultEventSpec",
    "FaultSpec",
    "OverloadPolicyBlock",
    "PipelineSpec",
    "SpecError",
    "StageSpec",
    "TenantSpecBlock",
    "WorkloadSpec",
    "component_library",
    "validate",
    "FAULT_RECIPES",
    "SPEC_DIR",
    "build",
    "build_preset",
    "bundled_spec_names",
    "bundled_spec_path",
    "load_preset",
    "register_fault_recipe",
    "resolve_fault_plan",
    "generate_spec",
    "FuzzedTopologyScenario",
]


def __getattr__(name):
    # fuzz imports dst/scenario machinery; keep it lazy so `import repro.spec`
    # stays cheap and cycle-free
    if name in ("generate_spec", "FuzzedTopologyScenario", "SpecFileScenario"):
        from repro.spec import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module 'repro.spec' has no attribute {name!r}")
