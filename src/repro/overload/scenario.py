"""The burst-overload scenario: the wedge the overload subsystems prevent.

``build_overload_pipeline`` wires the Figure-7 stage mix with *tight*
staging buffers — a couple of timesteps of headroom at the simulation
writers, a few at each stage — so a sustained slowdown burst in the
analysis stages fills the buffers and, without flow control, blocks the
producer indefinitely (the ``StagingBuffer``-full, reader-stalled wedge
of Figure 9).  The bundled ``overload`` spec turns the credit/backpressure/
brownout subsystems on, so the same burst degrades instead: the driver's
output stride rises, the brownout ladder reshapes the staging area, and
once the burst passes both unwind to a fully restored pipeline.

``overload_burst_plan`` is the matching fault-plan recipe for DST: a
seeded burst or ramp of node slowdowns across the analysis replicas.
"""

from __future__ import annotations

import numpy as np

from repro.containers.pipeline import Pipeline
from repro.containers.presets import build_overload_pipeline
from repro.faults.plan import FaultPlan
from repro.spec.build import register_fault_recipe

__all__ = ["build_overload_pipeline", "overload_burst_plan"]


@register_fault_recipe("overload_burst")
def overload_burst_plan(seed: int, pipe: Pipeline) -> FaultPlan:
    """A seeded slowdown burst (or ramp) across the analysis replicas.

    Victims are the bonds/csym replicas minus each container's first
    replica (co-hosting its local manager) and the global manager's node,
    so control traffic keeps flowing while the data plane saturates.
    """
    wl = pipe.driver.workload
    nominal = wl.total_steps * wl.output_interval
    rng = np.random.default_rng(seed if seed is not None else 0)
    gm_id = pipe.global_manager.node.node_id
    manager_ids = {m.node.node_id for m in pipe.managers.values()}
    targets = []
    for name in ("bonds", "csym"):
        container = pipe.containers.get(name)
        if container is None:
            continue
        for replica in container.replicas[1:]:
            nid = replica.node.node_id
            if nid != gm_id and nid not in manager_ids:
                targets.append(nid)
    if not targets:
        return FaultPlan(seed=seed if seed is not None else 0)
    start = float(rng.uniform(0.2, 0.35)) * nominal
    duration = float(rng.uniform(0.25, 0.4)) * nominal
    factor = float(rng.uniform(4.0, 10.0))
    if rng.integers(2):
        return FaultPlan.burst(
            seed if seed is not None else 0, targets, start, duration, factor
        )
    return FaultPlan.ramp(
        seed if seed is not None else 0, targets, start, duration, factor
    )
