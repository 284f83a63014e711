"""Named entry points to the bundled overload-experiment specs.

Every preset is a bundled spec (``repro/spec/bundled/<name>.yaml``) built
with :func:`repro.spec.build.build_preset`; these three are that call
under the names the overload head-to-head experiments and benchmarks use.
Each takes ``steps``/``seed`` overlays whose defaults are the bundled
values.  Anything else — an unmanaged baseline, resized buffers, a
shared fleet machine — is a spec overlay or a ``build_preset`` argument.
"""

from __future__ import annotations

from repro.simkernel import Environment
from repro.containers.pipeline import Pipeline
from repro.spec.build import build_preset


def build_overload_pipeline(env: Environment, steps: int = 16, seed: int = 1) -> Pipeline:
    """The ``overload`` preset: tight buffers, backpressure and brownout."""
    return build_preset(env, "overload", workload=dict(steps=steps), builder=dict(seed=seed))


def build_predictive_pipeline(env: Environment, steps: int = 16, seed: int = 1) -> Pipeline:
    """The ``predictive`` preset: ``overload`` under ``mode: predictive``."""
    return build_preset(env, "predictive", workload=dict(steps=steps), builder=dict(seed=seed))


def build_failover_pipeline(env: Environment, steps: int = 16, seed: int = 1) -> Pipeline:
    """The ``failover`` preset: ``overload`` with degrade-to-disk failover."""
    return build_preset(env, "failover", workload=dict(steps=steps), builder=dict(seed=seed))
