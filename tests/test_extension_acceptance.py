"""Acceptance runs of the extensions: chaos recovery, overload brownout,
predictive management, degrade-to-disk failover and the tenant fleet.

Each runs once at a small size, asserts its acceptance properties, and
replays the same seed to check the run is reproduced exactly.
"""

import pytest

from repro.experiments.figures import run_failover, run_fleet, run_overload, run_predictive
from repro.faults import FaultPlan
from repro.simkernel import Environment
from repro.spec import PipelineSpec, WorkloadSpec, build

SEED = 7
STEPS = 12

#: predictive / reactive time-in-degraded at STEPS=12, seed 7
#: (306.08 s / 340.60 s); the gate below allows this much drift above it
BASELINE_DEGRADED_RATIO = 0.899
GATE_RATIO_SLACK = 0.1


class TestChaosRecovery:
    """One Bonds staging node crashes mid-run on the Figure 7 configuration
    with spares: detected within the lease, replaced from the spare pool,
    redelivered, and the bottleneck settles back to its service floor."""

    LEASE = 5.0
    CRASH_AT = 60.0

    def _run(self):
        spares = 3
        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13 + spares, spare=spares,
                          steps=STEPS)
        pipe = build(env, PipelineSpec("chaos", workload=wl, builder=dict(
            seed=1, control_interval=30.0,
            fault_tolerance=True, lease_timeout=self.LEASE, heartbeat_interval=1.0,
        )))
        # a Bonds replica that does not co-host the local manager
        victim = pipe.containers["bonds"].replicas[1]
        plan = FaultPlan(seed=11)
        plan.node_crash(self.CRASH_AT, victim.node.node_id)
        plan.node_slowdown(self.CRASH_AT + 40.0,
                           pipe.containers["csym"].replicas[0].node.node_id,
                           factor=2.0, duration=20.0)
        pipe.arm_faults(plan)
        return pipe, pipe.run(settle=900)

    @pytest.fixture(scope="class")
    def runs(self):
        return self._run(), self._run()

    def test_one_spare_replace_within_the_lease(self, runs):
        (pipe, finished), _ = runs
        assert finished, "chaos run did not complete end-to-end"
        crash_time = next(t for t, kind, *_ in pipe.fault_injector.trace
                          if kind == "node_crash")
        replaces = [r for r in pipe.recovery.replacements if r["type"] == "replace"]
        assert len(replaces) == 1, pipe.recovery.replacements
        rec = replaces[0]
        assert rec["container"] == "bonds"
        assert rec["method"] == "spare", rec
        # detection within the lease (the scan period adds at most lease/4)
        assert 0.0 < rec["suspected_at"] - crash_time <= 2.0 * self.LEASE

    def test_every_timestep_delivered_once(self, runs):
        (pipe, _), _ = runs
        exits = [ts for _, ts, _ in pipe.end_to_end]
        assert len(exits) == len(set(exits)), "duplicate timesteps delivered"
        assert len(set(exits)) == pipe.driver.workload.total_steps, "timesteps lost"

    def test_bottleneck_returns_to_its_service_floor(self, runs):
        """The replacement re-enters with the crash backlog and drains it at
        the round-robin headroom rate: one elevated step per RR cycle,
        decaying back to the serial service time."""
        (pipe, _), _ = runs
        wl = pipe.driver.workload
        rec = next(r for r in pipe.recovery.replacements if r["type"] == "replace")
        series = pipe.telemetry.get("bonds", "latency_by_step")
        service = pipe.containers["bonds"].spec.cost.serial_time(wl.natoms)
        post = sorted((t, v) for t, v in zip(series.times, series.values)
                      if t * wl.output_interval > rec["completed_at"])
        assert post, "no post-recovery timesteps observed"
        at_floor = [v for _, v in post if v < 1.1 * service]
        assert len(at_floor) >= len(post) / 2
        window = min(5, len(post))
        head = max(v for _, v in post[:window])
        tail = max(v for _, v in post[-window:])
        assert tail <= head, f"recovery transient not decaying ({head=} {tail=})"
        assert max(v for _, v in post) < 2.5 * service
        assert pipe.driver.blocked_time == 0.0

    def test_replay_identical(self, runs):
        (a, finished_a), (b, finished_b) = runs
        assert finished_a and finished_b
        assert list(a.fault_injector.trace) == list(b.fault_injector.trace)
        assert list(a.end_to_end) == list(b.end_to_end)
        # fire-and-forget completions the crash swallowed are surfaced on
        # the environment, and reproduced by the replay
        assert isinstance(a.env.swallowed_faults, int)
        assert a.env.swallowed_faults == b.env.swallowed_faults


class TestOverloadBrownout:
    @pytest.fixture(scope="class")
    def runs(self):
        return (run_overload(seed=SEED, steps=STEPS),
                run_overload(seed=SEED, steps=STEPS, include_baseline=False))

    def test_degrades_and_fully_restores(self, runs):
        result, _ = runs
        assert result["ok"]
        managed = result["managed"]
        assert managed["finished"]
        assert managed["fully_restored"], "brownout ladder never fully unwound"
        assert managed["final_stride"] == 1
        assert not managed["offline_containers"]
        assert not managed["unaccounted_steps"]
        # the burst still wedges the unmanaged producer
        assert not result["unmanaged"]["finished"]
        ladder = {s["action"] for s in managed["degradation_steps"]
                  if s["kind"] == "brownout"}
        assert ladder & {"steal", "stride", "offline", "increase"}, ladder
        assert any(a.startswith("undo_") for a in ladder), ladder

    def test_replay_identical(self, runs):
        a, b = (r["managed"] for r in runs)
        assert a["degradation_steps"] == b["degradation_steps"]
        assert a["shed_by_reason"] == b["shed_by_reason"]


class TestPredictiveHeadToHead:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_predictive(seed=SEED, steps=STEPS), run_predictive(seed=SEED, steps=STEPS)

    def test_predictive_strictly_beats_reactive(self, runs):
        result, _ = runs
        assert result["ok"]
        reactive, predictive = result["reactive"], result["predictive"]
        assert reactive["finished"] and predictive["finished"]
        assert predictive["fully_restored"]
        assert predictive["final_stride"] == 1
        assert predictive["time_in_degraded_s"] < reactive["time_in_degraded_s"]
        assert predictive["shed_fraction"] < reactive["shed_fraction"]
        assert predictive["analytics"]["samples"] > 0, "forecaster never sampled"

    def test_degraded_ratio_within_slack_of_baseline(self, runs):
        result, _ = runs
        ratio = (result["predictive"]["time_in_degraded_s"]
                 / result["reactive"]["time_in_degraded_s"])
        assert ratio <= BASELINE_DEGRADED_RATIO + GATE_RATIO_SLACK, ratio

    def test_replay_identical(self, runs):
        a, b = (r["predictive"] for r in runs)
        assert a["degradation_steps"] == b["degradation_steps"]
        assert a["shed_by_reason"] == b["shed_by_reason"]
        assert a["analytics"] == b["analytics"], "forecaster state diverged"


class TestFailoverSpillReplay:
    @pytest.fixture(scope="class")
    def result(self):
        # run_failover reruns the failover arm itself for replay_identical
        return run_failover(seed=SEED, steps=STEPS)

    def test_zero_shed_full_delivery(self, result):
        assert result["ok"]
        reactive, fo = result["reactive"], result["failover"]
        assert reactive["finished"] and fo["finished"]
        assert reactive["shed_fraction"] > 0.0, "nothing for failover to save"
        assert fo["shed_fraction"] == 0.0, fo["shed_by_reason"]
        assert fo["eventual_delivery_pct"] == 100.0
        assert fo["spill_pending"] == 0
        assert fo["spilled_steps"] > 0, "failover run never spilled"
        assert set(fo["spill_by_status"]) <= {"replayed", "superseded"}

    def test_replay_identical(self, result):
        assert result["replay_identical"], "spill/replay records diverged on rerun"


class TestFleet:
    TENANTS = 8

    @pytest.fixture(scope="class")
    def runs(self):
        return tuple(run_fleet(seed=SEED, tenants=self.TENANTS, steps=6) for _ in range(2))

    def test_victim_browns_out_and_everyone_else_meets_sla(self, runs):
        result, _ = runs
        assert result["ok"], (result["unaccounted"], result["arbiter"]["violations"])
        rows = result["rows"]
        victims = [r for r in rows if r["preset"] == "overload"]
        others = [r for r in rows if r["preset"] != "overload"]
        assert victims and all(r["degradations"] > 0 for r in victims), victims
        assert all(r["sla_compliance"] == 1.0 for r in others), others

    def test_replay_identical(self, runs):
        a, b = runs
        assert a["rows"] == b["rows"]
        assert a["arbiter"]["trace"] == b["arbiter"]["trace"]
        assert a["plan_signature"] == b["plan_signature"]
