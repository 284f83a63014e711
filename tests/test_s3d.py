"""Tests for the S3D substrate: solver physics, front analytics, pipeline."""

import numpy as np
import pytest

from repro.s3d import FrontTracker, ReactionDiffusion, extract_front, front_position


class TestSolver:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReactionDiffusion(nx=2, ny=10)
        with pytest.raises(ValueError):
            ReactionDiffusion(diffusivity=0)
        with pytest.raises(ValueError):
            ReactionDiffusion(dt=10.0)  # beyond the stability limit

    def test_u_stays_in_unit_interval(self):
        solver = ReactionDiffusion(nx=60, ny=10)
        solver.ignite_left(5)
        solver.step(300)
        assert solver.u.min() >= 0.0
        assert solver.u.max() <= 1.0

    def test_unignited_field_stays_cold(self):
        solver = ReactionDiffusion(nx=40, ny=8)
        solver.step(200)
        assert solver.u.max() == 0.0  # u=0 is a fixed point

    def test_fully_burnt_is_steady_state(self):
        solver = ReactionDiffusion(nx=40, ny=8)
        solver.u[:] = 1.0
        solver.step(200)
        assert solver.u.min() == pytest.approx(1.0)

    def test_burnt_fraction_monotone(self):
        solver = ReactionDiffusion(nx=100, ny=10)
        solver.ignite_left(5)
        fractions = []
        for _ in range(6):
            solver.step(100)
            fractions.append(solver.burnt_fraction())
        assert fractions == sorted(fractions)
        assert fractions[-1] > fractions[0]

    def test_front_speed_matches_fisher_theory(self):
        """The traveling wave moves at ~2 sqrt(D r) once relaxed."""
        solver = ReactionDiffusion(nx=600, ny=8, dx=0.5, diffusivity=1.0, rate=0.25)
        solver.ignite_left(10)
        tracker = FrontTracker(dx=0.5)
        for _ in range(36):
            solver.step(100)
            sample = tracker.update(solver.time, solver.u)
            if sample.position > 0.75 * 600 * 0.5:
                break
        measured = tracker.mean_speed(skip=8)
        assert measured == pytest.approx(solver.wave_speed, rel=0.10)

    def test_speed_scales_with_parameters(self):
        """c = 2 sqrt(D r): quadrupling r doubles the speed."""
        def measure(rate):
            solver = ReactionDiffusion(nx=700, ny=6, dx=0.5, rate=rate)
            solver.ignite_left(10)
            tracker = FrontTracker(dx=0.5)
            for _ in range(30):
                solver.step(80)
                sample = tracker.update(solver.time, solver.u)
                if sample.position > 0.7 * 700 * 0.5:
                    break
            return tracker.mean_speed(skip=8)

        slow = measure(0.1)
        fast = measure(0.4)
        assert fast == pytest.approx(2 * slow, rel=0.15)

    def test_point_ignition_expands(self):
        solver = ReactionDiffusion(nx=80, ny=80)
        solver.ignite_point(40, 40, radius=4)
        before = solver.burnt_fraction()
        solver.step(200)
        assert solver.burnt_fraction() > before * 2


class TestFrontExtraction:
    def _step_field(self, nx=50, ny=6, edge=20.3):
        """A synthetic sharp front at x = edge."""
        x = np.arange(nx)
        u = np.where(x[None, :] < edge, 1.0, 0.0).repeat(ny, axis=0).reshape(ny, nx)
        return u

    def test_sharp_front_located(self):
        u = self._step_field(edge=20.0)
        positions = extract_front(u, level=0.5)
        assert np.allclose(positions, 19.5)  # interpolated between 19 and 20

    def test_dx_scaling(self):
        u = self._step_field(edge=20.0)
        assert front_position(u, dx=2.0) == pytest.approx(39.0)

    def test_linear_ramp_interpolation(self):
        # u falls linearly 1 -> 0 over the row: crossing at the midpoint.
        nx = 11
        u = np.tile(np.linspace(1.0, 0.0, nx), (4, 1))
        positions = extract_front(u, level=0.5)
        assert np.allclose(positions, 5.0)

    def test_cold_field_has_no_front(self):
        assert np.isnan(front_position(np.zeros((5, 20))))

    def test_burnt_field_reports_domain_edge(self):
        positions = extract_front(np.ones((3, 10)))
        assert np.allclose(positions, 9.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_front(np.zeros(5))
        with pytest.raises(ValueError):
            extract_front(np.zeros((3, 3)), level=1.5)


class TestFrontTracker:
    def test_speed_derived_from_consecutive_samples(self):
        tracker = FrontTracker()
        u1 = np.tile(np.where(np.arange(40) < 10, 1.0, 0.0), (4, 1))
        u2 = np.tile(np.where(np.arange(40) < 15, 1.0, 0.0), (4, 1))
        tracker.update(0.0, u1)
        sample = tracker.update(5.0, u2)
        assert sample.speed == pytest.approx(1.0)

    def test_wrinkling_measures_roughness(self):
        flat = np.tile(np.where(np.arange(40) < 10, 1.0, 0.0), (4, 1))
        rough = flat.copy()
        rough[0, :20] = 1.0  # one row's front much further along
        tracker = FrontTracker()
        assert tracker.update(0.0, rough).wrinkling > \
            FrontTracker().update(0.0, flat).wrinkling

    def test_snapshot_restore(self):
        tracker = FrontTracker()
        u = np.tile(np.where(np.arange(40) < 10, 1.0, 0.0), (4, 1))
        tracker.update(0.0, u)
        clone = FrontTracker.restore(tracker.snapshot())
        assert clone.samples == tracker.samples
        assert clone.state_bytes() == tracker.state_bytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            FrontTracker(level=0.0)


class TestS3DPipeline:
    def test_managed_s3d_pipeline(self):
        """The DES pipeline with the S3D stage set: the front stage is the
        bottleneck; management fixes it from spares."""
        from repro import Environment
        from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build

        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=14, spare=2, steps=25)
        stages = (
            StageSpec("reduce", 3, model="tree", library="s3d"),
            StageSpec("front", 4, upstream="reduce", library="s3d"),
            StageSpec("track", 2, upstream="front", library="s3d"),
        )
        pipe = build(env, PipelineSpec("s3d", workload=wl, stages=stages,
                                       builder=dict(seed=0)))
        pipe.run(settle=300)
        assert pipe.containers["track"].completions == 25
        assert pipe.driver.blocked_time == 0.0
        # front needed 5 units (65s service / 15s rate), started with 4.
        assert pipe.containers["front"].units >= 5
