"""Pipeline presets: named, reproducible experiment configurations.

A preset is a zero-argument recipe producing a fully wired
:class:`~repro.containers.pipeline.Pipeline` on a given
:class:`~repro.simkernel.Environment` — the fixed half of a
:class:`~repro.dst.scenario.DSTScenario` (the variable half being the
fault plan and the schedule seed).  Each recipe is an overlay on a
bundled spec from :mod:`repro.spec` — the DST presets *are* specs, just
resized to keep a sweep of 20 seeds affordable in CI.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.simkernel import Environment
from repro.containers.pipeline import Pipeline
from repro.spec.build import build, load_preset

PresetFn = Callable[[Environment], Pipeline]

#: name -> builder; scenarios refer to presets by name so repro reports
#: stay self-describing.
PRESETS: Dict[str, PresetFn] = {}


def preset(name: str):
    def wrap(fn: PresetFn) -> PresetFn:
        PRESETS[name] = fn
        return fn

    return wrap


@preset("smoke")
def smoke(env: Environment) -> Pipeline:
    """The CI scenario: Figure-7 stage mix at 8 timesteps, fault tolerance
    on, two spare staging nodes for the recovery ladder to draw from."""
    return build(env, load_preset("fig7"))


@preset("overload")
def overload(env: Environment) -> Pipeline:
    """The overload scenario: tight staging buffers plus backpressure and
    the brownout ladder, driven against burst/ramp slowdown plans (see
    :func:`repro.overload.scenario.overload_burst_plan`)."""
    return build(env, load_preset("overload").override(workload=dict(steps=12)))


@preset("predictive")
def predictive(env: Environment) -> Pipeline:
    """The overload scenario under ``mode: predictive``: identical burst
    exposure, but the :mod:`repro.analytics` forecaster stack drives the
    controllers — the ``predictive_actions_bounded`` oracle audits its
    signal-before-action discipline on every schedule."""
    return build(env, load_preset("predictive").override(workload=dict(steps=12)))


@preset("failover")
def failover(env: Environment) -> Pipeline:
    """The overload scenario with degrade-to-disk failover attached: the
    same burst exposure, but every would-be shed spills to the store and
    is owed an eventual replay — the ``exactly_one_fate`` and
    ``no_gap_no_dup_after_handover`` oracles audit the catch-up."""
    return build(env, load_preset("failover").override(workload=dict(steps=12)))


@preset("smoke_no_spares")
def smoke_no_spares(env: Environment) -> Pipeline:
    """Same mix with an empty spare pool: replacement must steal capacity,
    exercising the GM_REPLACE abort/degrade and TRADE paths."""
    return build(
        env,
        load_preset("fig7").override(
            workload=dict(staging_nodes=13, spare=0)
        ),
    )
