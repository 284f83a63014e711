"""Tests for topology-aware container placement (the future-work extension)."""

import pytest

from repro.simkernel import Environment
from repro.cluster import Machine, franklin
from repro.cluster.machine import torus_3d
from repro.containers.placement import (
    NaivePlacement,
    Placement,
    PlacementProblem,
    TopologyAwarePlacement,
    mean_hops,
    placement_cost,
)


def torus_machine(env, side=4):
    return Machine(env, num_nodes=side**3, topology=torus_3d((side, side, side)))


class TestProblemValidation:
    def test_demand_exceeds_candidates(self, env):
        m = torus_machine(env)
        problem = PlacementProblem(
            stages={"a": 10}, edges=[], candidate_nodes=m.nodes[:5]
        )
        with pytest.raises(ValueError):
            problem.validate()

    def test_unknown_edge_stage(self, env):
        m = torus_machine(env)
        problem = PlacementProblem(
            stages={"a": 1}, edges=[("a", "ghost", 1.0)], candidate_nodes=m.nodes[:4]
        )
        with pytest.raises(ValueError):
            problem.validate()

    def test_negative_volume(self, env):
        m = torus_machine(env)
        problem = PlacementProblem(
            stages={"a": 1, "b": 1}, edges=[("a", "b", -1.0)],
            candidate_nodes=m.nodes[:4],
        )
        with pytest.raises(ValueError):
            problem.validate()


class TestCostModel:
    def test_mean_hops_symmetric(self, env):
        m = torus_machine(env)
        a, b = m.nodes[:3], m.nodes[10:13]
        assert mean_hops(m, a, b) == mean_hops(m, b, a)

    def test_colocated_zero_cost(self, env):
        m = torus_machine(env)
        problem = PlacementProblem(
            stages={"a": 1, "b": 1}, edges=[("a", "b", 100.0)],
            candidate_nodes=m.nodes[:8],
        )
        same = {"a": [m.nodes[0]], "b": [m.nodes[0]]}
        assert placement_cost(m, problem, same) == 0.0

    def test_cost_scales_with_volume(self, env):
        m = torus_machine(env)
        assignment = {"a": [m.nodes[0]], "b": [m.nodes[5]]}
        low = placement_cost(
            m,
            PlacementProblem({"a": 1, "b": 1}, [("a", "b", 1.0)], m.nodes[:8]),
            assignment,
        )
        high = placement_cost(
            m,
            PlacementProblem({"a": 1, "b": 1}, [("a", "b", 10.0)], m.nodes[:8]),
            assignment,
        )
        assert high == pytest.approx(10 * low)


class TestPlanners:
    def _problem(self, m, anchor_idx=(0,)):
        """A two-stage chain anchored at given simulation nodes, with
        candidates spread across the torus."""
        candidates = m.nodes[8:]
        return PlacementProblem(
            stages={"helper": 3, "bonds": 4},
            edges=[("sim", "helper", 100.0), ("helper", "bonds", 100.0)],
            candidate_nodes=candidates,
            anchors={"sim": [m.nodes[i] for i in anchor_idx]},
        )

    def test_naive_assigns_in_order(self, env):
        m = torus_machine(env)
        problem = self._problem(m)
        placement = NaivePlacement().plan(m, problem)
        assert [n.node_id for n in placement.nodes_of("helper")] == [8, 9, 10]
        assert len(placement.nodes_of("bonds")) == 4

    def test_topology_aware_beats_naive(self, env):
        """On a torus with the anchor far from the first-fit nodes, the
        greedy planner finds a strictly cheaper layout."""
        m = torus_machine(env, side=5)
        problem = PlacementProblem(
            stages={"helper": 3, "bonds": 4},
            edges=[("sim", "helper", 100.0), ("helper", "bonds", 100.0)],
            candidate_nodes=m.nodes[10:],
            anchors={"sim": [m.nodes[124]]},  # far corner of the torus
        )
        naive = NaivePlacement().plan(m, problem)
        aware = TopologyAwarePlacement().plan(m, problem)
        assert aware.cost < naive.cost

    def test_no_node_double_assigned(self, env):
        m = torus_machine(env)
        placement = TopologyAwarePlacement().plan(m, self._problem(m))
        used = [n.node_id for nodes in placement.assignment.values() for n in nodes]
        assert len(used) == len(set(used))

    def test_all_stages_fully_allocated(self, env):
        m = torus_machine(env)
        problem = self._problem(m)
        placement = TopologyAwarePlacement().plan(m, problem)
        for stage, count in problem.stages.items():
            assert len(placement.nodes_of(stage)) == count

    def test_heavy_consumer_hugs_producer(self, env):
        """The stage with the heaviest edge gets placed closest."""
        m = torus_machine(env, side=5)
        anchor = m.nodes[0]
        problem = PlacementProblem(
            stages={"heavy": 2, "light": 2},
            edges=[("sim", "heavy", 1000.0), ("sim", "light", 1.0)],
            candidate_nodes=m.nodes[1:],
            anchors={"sim": [anchor]},
        )
        placement = TopologyAwarePlacement().plan(m, problem)
        heavy_hops = mean_hops(m, placement.nodes_of("heavy"), [anchor])
        light_hops = mean_hops(m, placement.nodes_of("light"), [anchor])
        assert heavy_hops <= light_hops


class TestBuilderIntegration:
    def test_pipeline_with_topology_placement_runs(self):
        from repro import Environment
        from repro.spec import PipelineSpec, WorkloadSpec, build

        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=8)
        pipe = build(env, PipelineSpec("placement", workload=wl, builder=dict(
            seed=0, placement="topology")))
        pipe.run(settle=200)
        assert pipe.containers["csym"].completions == 8
        assert pipe.driver.blocked_time == 0.0

    def test_unknown_placement_rejected(self):
        from repro import Environment
        from repro.spec import PipelineSpec, SpecError, build

        spec = PipelineSpec("placement", builder=dict(placement="psychic"))
        with pytest.raises(SpecError, match="builder.placement"):
            build(Environment(), spec)
