"""Tests for per-container SLA classes (deadline vs low-latency).

Section III-A: a checkpointing container "need not complete writing data to
stable storage until the next timestep arrives.  This is in contrast with
another container running code for crack discovery: it should complete with
low latency."
"""

import pytest

from repro import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build as build_spec


def build(env, csym_sla=1.0, spare=4, steps=20):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=14 + spare, spare=spare,
                      steps=steps)
    stages = (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 5, upstream="helper"),
        # csym service is 30 s at this scale: fine for a 15 s deadline SLA
        # with 2 replicas (throughput), but a low-latency SLA demands more.
        StageSpec("csym", 3, upstream="bonds", sla_factor=csym_sla),
        StageSpec("cna", 2, upstream="bonds", standby=True),
    )
    return build_spec(env, PipelineSpec("sla", workload=wl, stages=stages,
                                        builder=dict(seed=0)))


class TestSlaFactor:
    def test_validation(self, env, messenger):
        from repro.containers import Container
        from repro.datatap import NoPullScheduler
        from repro.fate import FateLedger
        from repro.smartpointer.component import SMARTPOINTER_COMPONENTS
        from repro.smartpointer.costs import ComputeModel

        with pytest.raises(ValueError):
            Container(env, messenger, SMARTPOINTER_COMPONENTS["csym"],
                      ComputeModel.ROUND_ROBIN, None,
                      pull_scheduler=NoPullScheduler(env), fates=FateLedger(),
                      sla_factor=0)

    def test_deadline_class_left_alone(self):
        """csym latency (30 s) exceeds the interval but its throughput
        sustains the rate: a deadline-class container is not grown."""
        env = Environment()
        pipe = build(env, csym_sla=1.0)
        pipe.run(settle=300)
        assert pipe.containers["csym"].units == 3
        assert not any("csym" in a for a in pipe.global_manager.actions_taken)

    def test_low_latency_class_gets_more_nodes(self):
        """The same component with a low-latency SLA (finish within a third
        of the interval) is sized against the tightened target."""
        env = Environment()
        pipe = build(env, csym_sla=1.0 / 3.0)
        pipe.run(settle=300)
        # units_to_sustain(5 s) for a 30 s RR service = 6 replicas.
        mgr = pipe.managers["csym"]
        assert mgr.units_to_sustain(15.0) == 6
        assert pipe.containers["csym"].units > 3
        assert any("csym" in a and "increase" in a
                   for a in pipe.global_manager.actions_taken)

    def test_low_latency_shrinks_headroom(self):
        env = Environment()
        pipe = build(env, csym_sla=0.5)
        mgr = pipe.managers["csym"]
        # Deadline class would call 3 units (needs 2) headroom 1; the
        # low-latency class needs 4, so it has a shortfall instead.
        assert mgr.headroom(15.0) == 0
        assert mgr.shortfall(15.0) == 1
        pipe.global_manager.stop()
