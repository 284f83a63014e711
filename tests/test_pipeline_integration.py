"""Integration tests: the full pipeline under management.

These reproduce the paper's three experiment configurations end-to-end and
assert the qualitative results of Section IV (see DESIGN.md shape criteria).
"""

import pytest

from repro import Environment, WeakScalingWorkload
from repro.containers.pipeline import default_stages
from repro.containers.policy import QueueDerivativePolicy
from repro.spec import PipelineSpec, WorkloadSpec, build as build_spec


def build(env, sim, staging, spare, steps=40, seed=1, policy=None, **builder):
    wl = WorkloadSpec(sim_nodes=sim, staging_nodes=staging, spare=spare,
                      steps=steps)
    spec = PipelineSpec("integration", workload=wl,
                        builder=dict(seed=seed, **builder))
    return build_spec(env, spec, policy=policy)


class TestFigure7Scenario:
    """256 sim + 13 staging nodes, no spares: steal from Helper."""

    @pytest.fixture(scope="class")
    def pipe(self):
        env = Environment()
        pipe = build(env, 256, 13, 0)
        pipe.run(settle=120)
        return pipe

    def test_management_steals_from_helper(self, pipe):
        actions = pipe.global_manager.actions_taken
        assert any(a.startswith("steal helper->bonds") for a in actions)

    def test_helper_was_the_donor(self, pipe):
        assert pipe.containers["helper"].units < 4
        assert pipe.containers["bonds"].units >= 5

    def test_application_never_blocked(self, pipe):
        assert pipe.driver.blocked_time == 0.0

    def test_all_timesteps_processed(self, pipe):
        assert pipe.containers["bonds"].completions == 40
        assert pipe.containers["csym"].completions == 40
        assert len(pipe.end_to_end) == 40

    def test_bonds_converges_to_service_time(self, pipe):
        """Post-fix latency settles at the per-chunk service time (the
        achievable minimum), not above it."""
        series = pipe.telemetry.get("bonds", "latency_by_step")
        service = pipe.containers["bonds"].spec.cost.serial_time(pipe.driver.workload.natoms)
        assert series.values[-1] == pytest.approx(service, rel=0.05)

    def test_helper_still_sustains_after_decrease(self, pipe):
        series = pipe.telemetry.get("helper", "latency_by_step")
        assert max(series.values) < 15.0  # still under the output interval

    def test_no_container_offline(self, pipe):
        assert not any(c.offline for c in pipe.containers.values())


class TestFigure8Scenario:
    """512 sim + 24 staging (4 spare): insufficient, but finishes cleanly."""

    @pytest.fixture(scope="class")
    def pipe(self):
        env = Environment()
        pipe = build(env, 512, 24, 4)
        pipe.run(settle=600)
        return pipe

    def test_spares_granted_to_bonds(self, pipe):
        assert "increase bonds +4" in pipe.global_manager.actions_taken
        assert pipe.containers["bonds"].units == 13

    def test_still_insufficient_but_no_offline(self, pipe):
        mgr = pipe.managers["bonds"]
        assert mgr.shortfall(15.0) > 0  # genuinely under-provisioned
        assert not pipe.containers["bonds"].offline

    def test_queues_never_overflow_and_no_blocking(self, pipe):
        assert pipe.driver.blocked_time == 0.0
        for container in pipe.containers.values():
            for replica in container.replicas:
                if not replica.passive:
                    assert replica.queue.high_water <= replica.queue.capacity

    def test_latency_grows_slowly(self, pipe):
        """Insufficient capacity: latency creeps up but by far less than the
        deficit would suggest with no management."""
        series = pipe.telemetry.get("bonds", "latency_by_step")
        assert series.values[-1] > series.values[0]
        assert series.values[-1] < series.values[0] * 1.5

    def test_near_ideal_latency(self, pipe):
        """Per-step latency ends within 10% of the service time, the
        achievable minimum."""
        series = pipe.telemetry.get("bonds", "latency_by_step")
        service = pipe.containers["bonds"].spec.cost.serial_time(pipe.driver.workload.natoms)
        assert series.values[-1] < service * 1.10

    def test_buffer_occupancy_stays_low(self, pipe):
        """Below the offline threshold throughout (contrast with Figure 9)."""
        assert max(pipe.telemetry.get("bonds", "buffer_occupancy").values) < 0.35

    def test_no_container_offline(self, pipe):
        assert not any(c.offline for c in pipe.containers.values())


class TestFigure9And10Scenario:
    """1024 sim + 24 staging (4 spare): spares, then offline cascade."""

    @pytest.fixture(scope="class")
    def pipe(self):
        env = Environment()
        pipe = build(env, 1024, 24, 4, steps=60)
        pipe.run(settle=300)
        return pipe

    def test_spares_used_before_offline(self, pipe):
        actions = pipe.global_manager.actions_taken
        incr = actions.index("increase bonds +4")
        off = actions.index("offline bonds")
        assert incr < off

    def test_bonds_and_dependents_offline(self, pipe):
        assert pipe.containers["bonds"].offline
        assert pipe.containers["csym"].offline
        assert pipe.containers["cna"].offline
        assert not pipe.containers["helper"].offline

    def test_helper_keeps_running_to_disk(self, pipe):
        assert pipe.containers["helper"].completions == 60
        helper_files = [f for f in pipe.fs.files if f.name.startswith("helper.ts")]
        assert helper_files

    def test_offline_output_carries_provenance(self, pipe):
        for record in pipe.fs.files:
            assert "provenance" in record.attributes
        helper_files = [f for f in pipe.fs.files if f.name.startswith("helper.ts")]
        assert all(f.attributes["provenance"] == ["helper"] for f in helper_files)
        assert all(f.attributes["incomplete_pipeline"] for f in helper_files)

    def test_helper_switches_to_disk_mid_run(self, pipe):
        """The paper's method switch: Helper streams through DataTap until
        the cascade prunes its consumers, then writes every later timestep
        to ``helper.tsNNNNNN.bp``."""
        helper_files = [f for f in pipe.fs.files if f.name.startswith("helper.ts")]
        on_disk = [f.attributes["timestep"] for f in helper_files]
        first = on_disk[0]
        assert 0 < first and on_disk == list(range(first, 60))
        assert [f.name for f in helper_files] == [
            f"helper.ts{ts:06d}.bp" for ts in on_disk
        ]

    def test_application_never_blocked(self, pipe):
        """The whole point: the offline decision prevented the pipeline from
        blocking the simulation."""
        assert pipe.driver.blocked_time == 0.0

    def test_occupancy_rises_until_offline(self, pipe):
        occ = pipe.telemetry.get("bonds", "buffer_occupancy")
        offline_at = next(t for t, label in pipe.telemetry.events if "offline bonds" in label)
        before = [v for t, v in zip(occ.times, occ.values) if t <= offline_at]
        assert before[-1] > before[0]
        assert before[-1] >= 0.3  # the pressure was real

    def test_fig10_sharp_end_to_end_drop(self, pipe):
        times, values = pipe.telemetry.get("pipeline", "end_to_end").times, \
            pipe.telemetry.get("pipeline", "end_to_end").values
        offline_at = next(t for t, label in pipe.telemetry.events if "offline bonds" in label)
        after = [v for t, v in zip(times, values) if t > offline_at + 30]
        assert after
        assert max(after) < 60.0  # pruned pipeline: helper + disk only

    def test_every_timestep_accounted_for(self, pipe):
        """No timestep vanished: each of the 60 steps either exited the
        pipeline or was written to disk (offline flush / stranded)."""
        exited = {ts for _, ts, _ in pipe.end_to_end}
        on_disk = {f.attributes.get("timestep") for f in pipe.fs.files}
        covered = exited | on_disk
        assert set(range(60)) <= covered


class TestDynamicBranch:
    """The Table I branching behaviour: CSym detects the crack, CNA starts."""

    @pytest.fixture(scope="class")
    def pipe(self):
        env = Environment()
        pipe = build(env, 256, 13, 0, steps=30, seed=2, crack_step=10)
        pipe.run(settle=300)
        return pipe

    def test_branch_fires_once(self, pipe):
        assert pipe.branch_fired
        assert sum(1 for _, l in pipe.telemetry.events if "crack detected" in l) == 1

    def test_cna_activated_and_processing(self, pipe):
        cna = pipe.containers["cna"]
        assert cna.active
        assert not cna.offline
        assert cna.completions > 0

    def test_csym_retired(self, pipe):
        assert pipe.containers["csym"].offline
        assert pipe.containers["csym"].units == 0

    def test_cna_output_carries_full_provenance(self, pipe):
        cna_files = [f for f in pipe.fs.files if f.name.startswith("cna.ts")]
        assert cna_files
        assert all(
            f.attributes["provenance"] == ["helper", "bonds", "cna"] for f in cna_files
        )

    def test_csym_processed_pre_crack_steps(self, pipe):
        csym_files = [f for f in pipe.fs.files if f.name.startswith("csym.ts")]
        assert csym_files  # it ran until the branch


class TestAlternativePolicy:
    def test_queue_derivative_policy_also_fixes_fig7(self):
        env = Environment()
        pipe = build(env, 256, 13, 0, steps=30,
                     policy=QueueDerivativePolicy(growth_threshold=0.001))
        pipe.run(settle=120)
        assert pipe.containers["bonds"].units >= 5
        assert pipe.driver.blocked_time == 0.0


class TestPullSchedulerIntegration:
    def test_disabling_scheduler_still_works(self):
        env = Environment()
        pipe = build(env, 256, 13, 0, steps=10, use_pull_scheduler=False)
        pipe.run(settle=120)
        assert pipe.containers["helper"].completions == 10


class TestDefaultStages:
    def test_fig7_allocation_sums_to_staging(self):
        wl = WeakScalingWorkload(sim_nodes=256, staging_nodes=13)
        stages = default_stages(wl)
        assert sum(s.units for s in stages) == 13

    def test_fig8_allocation_leaves_four_spares(self):
        wl = WeakScalingWorkload(sim_nodes=512, staging_nodes=24, spare_staging_nodes=4)
        stages = default_stages(wl)
        assert sum(s.units for s in stages) == 20

    def test_cna_is_standby(self):
        wl = WeakScalingWorkload(sim_nodes=256, staging_nodes=13)
        stages = default_stages(wl)
        cna = next(s for s in stages if s.name == "cna")
        assert cna.standby
