"""Ablations of the design choices DESIGN.md calls out, and the paper's
headline claim that containers prevent application blocking.

1. pull scheduling vs unscheduled pulls;
2. the strict writer pause during a decrease;
3. the latency policy vs the queue-derivative policy;
4. aprun relaunch for MPI-model containers vs round-robin spawning;
5. direct monitoring reports vs the aggregation overlay;
6. topology-aware vs first-fit placement;
7. the S3D stage set under the same management stack.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.machine import torus_3d
from repro.containers.placement import NaivePlacement, PlacementProblem, TopologyAwarePlacement
from repro.containers.policy import LatencyPolicy, QueueDerivativePolicy
from repro.evpath import Message, MessageType, Messenger, OverlayTree
from repro.simkernel import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build

MIB = 2**20


def _run(name, steps, settle, sim_nodes=256, staging_nodes=13, spare=0, stages=None,
         policy=None, **builder):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=sim_nodes, staging_nodes=staging_nodes, spare=spare,
                      steps=steps)
    pipe = build(env, PipelineSpec(name, workload=wl, stages=stages, builder=builder),
                 policy=policy)
    return pipe, pipe.run(settle=settle)


def _three_stages(bonds_units, bonds_model="rr"):
    return (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", bonds_units, model=bonds_model, upstream="helper"),
        StageSpec("csym", 3, upstream="bonds"),
    )


def _fig7(steps, policy=None, use_pull_scheduler=True):
    stages = _three_stages(4) + (StageSpec("cna", 2, upstream="bonds", standby=True),)
    return _run("ablation", steps, 600, stages=stages, policy=policy, seed=1,
                use_pull_scheduler=use_pull_scheduler)[0]


def _decreases(steps, count, times):
    """Bonds over-provisioned at 12 replicas, decreased ``times`` times by
    ``count``, one decrease every 60 s."""
    env = Environment()
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=24, spare=0, steps=steps)
    pipe = build(env, PipelineSpec("ablation", workload=wl, stages=_three_stages(12),
                                   builder=dict(seed=0, control_interval=10_000)))

    def ctl(env):
        for _ in range(times):
            yield env.timeout(60)
            yield pipe.global_manager.decrease("bonds", count)

    env.process(ctl(env))
    pipe.run(settle=600)
    return pipe


class TestPullScheduling:
    def test_scheduler_admits_every_fragment(self):
        pipe = _fig7(15)
        assert pipe.driver.pull_scheduler.pulls_admitted == 15 * 4
        assert pipe.containers["helper"].completions == 15

    def test_unscheduled_still_correct(self):
        pipe = _fig7(15, use_pull_scheduler=False)
        # unscheduled: admission never waits and schedules no event
        assert pipe.driver.pull_scheduler.admit().processed
        assert pipe.containers["helper"].completions == 15


class TestWriterPauseConsistency:
    def test_strict_pause_never_loses_timesteps(self):
        pipe = _decreases(30, 2, 3)
        assert pipe.containers["bonds"].units == 6
        assert pipe.containers["bonds"].completions == 30
        assert sum(r.breakdown.get("writer_pause", 0)
                   for r in pipe.control_trace.of("decrease")) > 0

    def test_pause_cost_is_small_vs_pipeline_time(self):
        """Well under one output interval per decrease: the transient of
        Figure 7, not a structural cost."""
        record = _decreases(20, 4, 1).control_trace.of("decrease")[0]
        assert record.breakdown["writer_pause"] < 15.0


class TestPolicyComparison:
    def test_both_policies_converge(self):
        for policy in (LatencyPolicy(), QueueDerivativePolicy(growth_threshold=0.001)):
            pipe = _fig7(30, policy=policy)
            assert pipe.containers["bonds"].units >= 5, policy
            assert pipe.driver.blocked_time == 0.0, policy


class TestAprunArtifact:
    def test_mpi_resize_dominated_by_launch(self):
        records = {}
        for model in ("rr", "parallel"):
            env = Environment()
            wl = WorkloadSpec(sim_nodes=256, staging_nodes=20, spare=0, steps=4)
            pipe = build(env, PipelineSpec("ablation", workload=wl,
                                           stages=_three_stages(4, model),
                                           builder=dict(seed=3, control_interval=10_000)))

            def do(env, pipe=pipe):
                yield env.timeout(1)
                yield pipe.global_manager.increase("bonds", 4)

            env.process(do(env))
            pipe.run(settle=120)
            records[model] = pipe.control_trace.of("increase")[0]
        mpi = records["parallel"]
        assert mpi.total > records["rr"].total * 5
        assert mpi.breakdown.get("launch", 0) >= 3.0


class TestBlockingPrevented:
    """Table II's 1024-node workload with tight staging buffers: unmanaged,
    back-pressure wedges LAMMPS mid-run; managed, the runtime prunes Bonds
    and the simulation completes every step on schedule."""

    @pytest.fixture(scope="class")
    def runs(self):
        def run(managed):
            return _run("blocking", 60, 300, sim_nodes=1024, staging_nodes=24, spare=4,
                        seed=1, control_interval=30.0 if managed else 1e9,
                        stage_buffer_bytes=480 * MIB, sim_buffer_bytes=3 * 68 * MIB)

        return run(False), run(True)

    def test_unmanaged_wedges_managed_completes(self, runs):
        (unmanaged, unmanaged_done), (managed, managed_done) = runs
        assert not unmanaged_done
        assert unmanaged.driver.is_blocked
        assert unmanaged.driver.total_blocked_time > 100.0
        assert unmanaged.driver.steps_emitted < 60
        assert managed_done
        assert managed.driver.steps_emitted == 60
        assert managed.driver.total_blocked_time == 0.0
        assert managed.containers["bonds"].offline

    def test_managed_stays_on_schedule_past_the_wedge_point(self, runs):
        (unmanaged, _), (managed, _) = runs
        wedge_step = unmanaged.driver.steps_emitted
        assert managed.driver.emit_times[wedge_step] <= 15.0 * (wedge_step + 1) + 1.0
        for step, emit_time in enumerate(managed.driver.emit_times):
            assert emit_time <= 15.0 * (step + 1) + 1.0


class TestMonitoringOverlay:
    REPORTERS = 48
    WINDOWS = 6
    INTERVAL = 15.0

    def _direct(self):
        env = Environment()
        machine = Machine(env, num_nodes=self.REPORTERS + 2)
        messenger = Messenger(env, machine.network)
        ep = messenger.endpoint(machine.nodes[0], "gm")
        received = []

        def sink(env):
            while True:
                received.append((yield ep.recv()))

        def reporter(env, node, idx):
            for _ in range(self.WINDOWS):
                yield env.timeout(self.INTERVAL)
                yield messenger.send(node, "gm", Message(
                    MessageType.METRIC_REPORT, sender=f"r{idx}",
                    payload={"latency": 1.0}, size_bytes=512,
                ))

        env.process(sink(env))
        for i in range(self.REPORTERS):
            env.process(reporter(env, machine.nodes[2 + i], i))
        env.run(until=self.WINDOWS * self.INTERVAL + 10)
        # every report is one message into the GM node
        return len(received), len(received)

    def _overlay(self):
        env = Environment()
        machine = Machine(env, num_nodes=self.REPORTERS + 2)
        received = []
        overlay = OverlayTree(
            env, Messenger(env, machine.network), machine.nodes[0],
            machine.nodes[2:2 + self.REPORTERS], on_report=received.append,
            fanout=4, flush_interval=self.INTERVAL,
        )

        def reporter(env, node):
            for _ in range(self.WINDOWS):
                yield env.timeout(self.INTERVAL)
                yield overlay.submit(node, {"latency": 1.0})

        for i in range(self.REPORTERS):
            env.process(reporter(env, machine.nodes[2 + i]))
        env.run(until=self.WINDOWS * self.INTERVAL + 60)
        overlay.stop()
        return len(received), overlay.root_ingress

    def test_overlay_reduces_root_hotspot(self):
        direct_received, direct_root = self._direct()
        overlay_received, overlay_root = self._overlay()
        assert direct_received == self.REPORTERS * self.WINDOWS
        assert overlay_received == self.REPORTERS * self.WINDOWS
        assert overlay_root < direct_root / 3


class TestPlacement:
    def test_reduces_hop_weighted_movement(self):
        """Staging nodes scattered across a 6^3 torus, as batch schedulers
        hand them out: first-fit over that scatter is the baseline."""
        env = Environment()
        machine = Machine(env, num_nodes=6**3, topology=torus_3d((6, 6, 6)))
        pool = machine.nodes[4:]
        candidates = [pool[i] for i in np.random.default_rng(42).permutation(len(pool))[:60]]
        gib = 2**30
        problem = PlacementProblem(
            stages={"helper": 4, "bonds": 6, "csym": 4},
            edges=[("sim", "helper", 0.26 * gib), ("helper", "bonds", 0.26 * gib),
                   ("bonds", "csym", 0.37 * gib)],
            candidate_nodes=candidates,
            anchors={"sim": machine.nodes[:4]},
        )
        naive = NaivePlacement().plan(machine, problem)
        aware = TopologyAwarePlacement().plan(machine, problem)
        assert aware.cost < naive.cost

    def test_never_worse_end_to_end(self):
        def mean_helper_latency(placement):
            pipe, _ = _run("placement", 10, 300, seed=0, placement=placement,
                           control_interval=10_000)
            series = pipe.telemetry.get("helper", "latency_by_step")
            return sum(series.values) / len(series.values), pipe

        naive_latency, _ = mean_helper_latency("naive")
        aware_latency, aware_pipe = mean_helper_latency("topology")
        assert aware_pipe.containers["csym"].completions == 10
        assert aware_latency <= naive_latency * 1.01


def _s3d_stages(front_units):
    return (
        StageSpec("reduce", 3, model="tree", library="s3d"),
        StageSpec("front", front_units, upstream="reduce", library="s3d"),
        StageSpec("track", 2, upstream="front", library="s3d"),
    )


class TestS3D:
    def test_managed_pipeline(self):
        pipe, _ = _run("s3d", 30, 300, staging_nodes=11, spare=2, stages=_s3d_stages(4),
                       seed=0)
        # the front stage needs 5 units and starts with 4
        assert "increase front +1" in pipe.global_manager.actions_taken
        assert pipe.containers["front"].units == 5
        assert pipe.containers["track"].completions == 30
        assert pipe.driver.blocked_time == 0.0
        track_files = [f for f in pipe.fs.files if f.name.startswith("track.")]
        assert track_files
        assert track_files[0].attributes["provenance"] == ["reduce", "front", "track"]

    def test_stateful_resize_migrates_tracker(self):
        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=12, spare=2, steps=10)
        pipe = build(env, PipelineSpec("s3d", workload=wl, stages=_s3d_stages(5),
                                       builder=dict(seed=0, control_interval=10_000)))

        def ctl(env):
            yield env.timeout(30)
            yield pipe.global_manager.increase("track", 1)

        env.process(ctl(env))
        pipe.run(settle=200)
        record = next(r for r in pipe.control_trace.of("increase") if r.subject == "track")
        assert record.breakdown.get("state_migration", 0.0) > 0
