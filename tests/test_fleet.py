"""Tests for repro.fleet: quota policy, arbiter grant/steal/deny paths,
node-conservation audits, and whole-fleet determinism."""

import dataclasses
import json

import pytest

from repro.simkernel import Environment, shuffle
from repro.simkernel.errors import SimulationError
from repro.cluster import BatchScheduler, Machine
from repro.cluster.scheduler import container_owner
from repro.fleet import (
    FleetArbiter,
    FleetDSTScenario,
    TenantQuota,
    TenantSpec,
    build_fleet,
    build_mixed_fleet,
    fleet_plan,
    mixed_specs,
)


class _FakeGM:
    """The arbiter only needs ``gm.scheduler`` (plus the ``tenant`` /
    ``arbiter`` attributes ``register`` installs)."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.tenant = "default"
        self.arbiter = None


def make_arbiter(env, spares=2, tenants=("a", "b"), priorities=None,
                 pool=4, reserved=2, burst=None):
    """A bare arbiter over fake GMs: each tenant gets ``pool`` nodes."""
    machine = Machine(env, num_nodes=spares + pool * len(tenants))
    spare_nodes = list(machine.partition("spares", spares).nodes)
    arb = FleetArbiter(env, spare_nodes, rebalance_interval=0)
    gms = {}
    for i, name in enumerate(tenants):
        part = machine.partition(name, pool)
        sched = BatchScheduler(env, part, label=f"fleet.{name}")
        gm = _FakeGM(sched)
        prio = priorities[i] if priorities else 1
        arb.register(name, gm, TenantQuota(
            reserved=reserved, burst=burst or pool + max(spares, 4),
            priority=prio,
        ))
        gms[name] = gm
    return machine, arb, gms


def actions(arb):
    return [(action, tenant, count) for _, action, tenant, count in arb.trace]


class TestTenantQuota:
    def test_negative_reserved_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota(reserved=-1, burst=4)

    def test_burst_below_reserved_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota(reserved=4, burst=3)

    def test_frozen(self):
        quota = TenantQuota(reserved=2, burst=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            quota.reserved = 0


class TestArbiterGrants:
    def test_grant_from_spares_marks_borrowed(self, env):
        _, arb, gms = make_arbiter(env, spares=2)
        granted = arb.request("a", 1)
        assert len(granted) == 1
        sched = gms["a"].scheduler
        assert granted[0] in sched.pool.nodes
        assert sched.is_borrowed(granted[0])
        assert len(arb.spares) == 1
        assert actions(arb) == [("grant", "a", 1)]
        assert arb.violations == []

    def test_register_wires_gm(self, env):
        _, arb, gms = make_arbiter(env, spares=1)
        assert gms["a"].tenant == "a"
        assert gms["a"].arbiter is arb

    def test_duplicate_tenant_rejected(self, env):
        _, arb, gms = make_arbiter(env, spares=1)
        with pytest.raises(SimulationError, match="already registered"):
            arb.register("a", gms["a"], TenantQuota(reserved=0, burst=9))

    def test_nonpositive_request_rejected(self, env):
        _, arb, _ = make_arbiter(env, spares=1)
        with pytest.raises(ValueError):
            arb.request("a", 0)

    def test_race_for_last_spare_is_deterministic(self, env):
        """Two equal-priority tenants contending for the one remaining
        spare: the first request wins it, the second is denied (no steal
        between equal priorities) — and the decision log says exactly that."""
        _, arb, gms = make_arbiter(env, spares=1)
        assert arb.available_to("a") == 1
        assert arb.available_to("b") == 1  # both *see* the spare...
        won = arb.request("a", 1)
        gms["a"].scheduler.allocate_specific(won, "work")  # ...and use it
        lost = arb.request("b", 1)  # the loser finds the pool dry
        assert len(won) == 1 and lost == []
        assert actions(arb) == [("grant", "a", 1), ("deny", "b", 1)]
        assert arb.available_to("b") == 0
        assert arb.violations == []

    def test_idle_loan_is_reclaimable_by_the_next_requester(self, env):
        """The flip side of the race: if the winner parks its grant idle,
        the loser's request reclaims it — idle loans are fleet property."""
        _, arb, gms = make_arbiter(env, spares=1)
        [node] = arb.request("a", 1)
        assert arb.request("b", 1) == [node]
        assert actions(arb) == [
            ("grant", "a", 1), ("reclaim", "a", 1), ("grant", "b", 1),
        ]
        assert arb.violations == []

    def test_burst_ceiling_caps_grant(self, env):
        _, arb, _ = make_arbiter(env, spares=4, pool=4, burst=5)
        granted = arb.request("a", 3)  # headroom is only 5 - 4 = 1
        assert len(granted) == 1
        assert ("deny", "a", 2) in actions(arb)
        assert arb.holdings("a") == 5
        assert arb.violations == []

    def test_failed_spare_never_granted_but_still_counted(self, env):
        _, arb, _ = make_arbiter(env, spares=2)
        arb.spares[0].fail()
        assert arb.live_spares() == 1
        granted = arb.request("a", 2)
        assert len(granted) == 1 and not granted[0].failed
        # the dead spare stays on the arbiter's books: conservation holds
        assert arb.violations == []


class TestArbiterStealsAndReclaims:
    def test_steal_from_lower_priority_respects_floor(self, env):
        _, arb, gms = make_arbiter(
            env, spares=0, priorities=(1, 2), pool=4, reserved=2,
        )
        granted = arb.request("b", 3)
        # only down to a's reserved floor: 4 - 2 = 2 nodes stealable
        assert len(granted) == 2
        assert arb.holdings("a") == 2
        assert actions(arb) == [
            ("steal", "a", 1), ("steal", "a", 1),
            ("grant", "b", 2), ("deny", "b", 1),
        ]
        assert arb.violations == []

    def test_no_steal_between_equal_priorities(self, env):
        _, arb, _ = make_arbiter(env, spares=0, priorities=(2, 2))
        assert arb.request("b", 1) == []
        assert actions(arb) == [("deny", "b", 1)]

    def test_steal_skips_busy_and_failed_nodes(self, env):
        _, arb, gms = make_arbiter(
            env, spares=0, priorities=(1, 2), pool=4, reserved=0,
        )
        sched_a = gms["a"].scheduler
        sched_a.allocate(2, container_owner("work"))  # busy: not stealable
        sched_a.mark_failed(sched_a.peek_free()[0])  # dead: not stealable
        granted = arb.request("b", 4)
        assert len(granted) == 1
        assert not granted[0].failed
        assert arb.violations == []

    def test_reclaim_idle_loan_before_stealing(self, env):
        """A loan parked idle at one tenant is fleet property: it services
        the next request even when the spare pool is dry."""
        _, arb, gms = make_arbiter(env, spares=1)
        [node] = arb.request("a", 1)
        assert len(arb.spares) == 0
        granted = arb.request("b", 1)
        assert granted == [node]
        assert gms["b"].scheduler.is_borrowed(node)
        assert node not in gms["a"].scheduler.pool.nodes
        assert ("reclaim", "a", 1) in actions(arb)
        assert arb.violations == []

    def test_give_back_returns_loan_to_spares(self, env):
        _, arb, gms = make_arbiter(env, spares=1)
        granted = arb.request("a", 1)
        arb.give_back("a", granted)
        assert granted[0] in arb.spares
        assert granted[0] not in gms["a"].scheduler.pool.nodes
        assert actions(arb)[-1] == ("return", "a", 1)
        assert arb.violations == []

    def test_rebalance_loop_sweeps_idle_loans(self):
        env = Environment()
        machine = Machine(env, num_nodes=6)
        spare_nodes = list(machine.partition("spares", 2).nodes)
        arb = FleetArbiter(env, spare_nodes, rebalance_interval=30.0)
        sched = BatchScheduler(env, machine.partition("a", 4), label="fleet.a")
        arb.register("a", _FakeGM(sched), TenantQuota(reserved=2, burst=9))
        arb.request("a", 2)
        assert len(arb.spares) == 0
        env.run(until=31)
        assert len(arb.spares) == 2
        arb.stop()
        assert arb.violations == []


class TestSchedulerAdoptExpel:
    def test_adopt_expel_roundtrip(self, env, machine):
        pool = machine.partition("p", 4)
        outside = machine.partition("q", 2)
        sched = BatchScheduler(env, pool)
        sched.adopt(list(outside.nodes))
        assert sched.free_nodes == 6
        assert all(sched.is_borrowed(n) for n in outside.nodes)
        assert sched.free_borrowed() == list(outside.nodes)
        sched.expel(list(outside.nodes))
        assert sched.free_nodes == 4
        assert not any(sched.is_borrowed(n) for n in outside.nodes)

    def test_adopt_duplicate_rejected(self, env, machine):
        pool = machine.partition("p", 4)
        sched = BatchScheduler(env, pool)
        with pytest.raises(SimulationError, match="already"):
            sched.adopt([pool[0]])

    def test_expel_busy_node_rejected(self, env, machine):
        pool = machine.partition("p", 4)
        sched = BatchScheduler(env, pool)
        nodes = sched.allocate(4, container_owner("work"))
        with pytest.raises(SimulationError):
            sched.expel([nodes[0]])

    def test_occupancy_counts_borrowed(self, env, machine):
        sched = BatchScheduler(env, machine.partition("p", 4))
        sched.adopt(list(machine.partition("q", 2).nodes))
        sched.allocate(3, container_owner("work"))
        occ = sched.occupancy()
        assert occ == {"pool": 6, "free": 3, "busy": 3,
                       "failed": 0, "borrowed": 2}


class TestFleetBuild:
    def test_mixed_specs_shape(self):
        specs = mixed_specs(5)
        assert [s.preset for s in specs] == [
            "overload", "fig7", "s3d", "fig7", "s3d",
        ]
        assert specs[0].overload_burst and specs[0].priority == 1
        assert all(s.priority == 2 for s in specs[1:])

    def test_unknown_preset_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="unknown fleet preset"):
            build_fleet(env, [TenantSpec(name="x", preset="nope")])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            build_fleet(Environment(), [])

    def test_duplicate_tenant_name_rejected(self):
        env = Environment()
        specs = [TenantSpec(name="a", preset="s3d", steps=2),
                 TenantSpec(name="a", preset="s3d", steps=2)]
        # rejected upfront, before any machine node is carved
        with pytest.raises(ValueError, match="duplicate tenant name"):
            build_fleet(env, specs)

    def test_partitions_are_tenant_prefixed(self):
        env = Environment(tie_breaker=shuffle(0))
        fleet = build_mixed_fleet(env, tenants=2, steps=2)
        names = set(fleet.machine._partitions)
        assert "fleet:spares" in names
        assert {"t00:sim", "t00:staging", "t01:sim", "t01:staging"} <= names
        # no node is owned by two tenants at build time
        owned = [n.node_id for n in fleet.arbiter.spares]
        for tenant in fleet.tenants.values():
            owned.extend(n.node_id for n in tenant.pipe.scheduler.pool.nodes)
        assert len(owned) == len(set(owned))


class TestFleetRun:
    def test_small_fleet_runs_to_completion(self):
        env = Environment(tie_breaker=shuffle(3))
        fleet = build_mixed_fleet(env, tenants=3, steps=3)
        plan = fleet_plan(3, fleet)
        fleet.arm_faults(plan)
        finished = fleet.run(settle=150)
        assert all(finished.values())
        assert fleet.arbiter.violations == []
        for summary in fleet.summaries():
            assert summary["delivered"] + summary["shed"] == 3, summary

    def test_stop_ends_a_predictive_tenants_forecaster(self):
        """Fleet.stop stops every tenant's controllers the way
        Pipeline.run does, the forecaster included: after the run it
        samples nothing more."""
        env = Environment()
        fleet = build_fleet(env, [TenantSpec("a", preset="predictive", steps=4),
                                  TenantSpec("b", preset="fig7", steps=4)])
        fleet.run(settle=30)
        analytics = fleet.tenants["a"].pipe.analytics
        samples = analytics.samples
        env.run(until=env.now + 100)
        assert analytics.samples == samples

    def test_dst_scenario_deterministic_replay(self):
        reports = []
        for _ in range(2):
            report = FleetDSTScenario(tenants=3, steps=3).run(seed=11)
            reports.append(json.dumps(report.as_dict(), sort_keys=True))
        assert reports[0] == reports[1]

    def test_dst_scenario_invariants_green(self):
        report = FleetDSTScenario(tenants=3, steps=3).run(seed=5)
        assert report.ok, report.violations

    def test_fleet_invariants_registered(self):
        from repro.dst.invariants import INVARIANTS

        assert "no_cross_tenant_node_leak" in INVARIANTS
        assert "quota_conservation" in INVARIANTS


class TestFleetValidation:
    def test_aggregate_floors_beyond_capacity_rejected_upfront(self):
        # two s3d tenants = 2 x 11 staging + 4 spares = 26 nodes of
        # conservable capacity; floors of 14 each (28) can never all hold
        env = Environment()
        specs = [
            TenantSpec(name="a", preset="s3d", steps=2,
                       quota=TenantQuota(reserved=14, burst=20)),
            TenantSpec(name="b", preset="s3d", steps=2,
                       quota=TenantQuota(reserved=14, burst=20)),
        ]
        with pytest.raises(ValueError, match="aggregate quota floors"):
            build_fleet(env, specs, spares=4)

    def test_register_rejects_unfillable_floors_on_legacy_path(self):
        # direct arbiter registration (no build_fleet) hits the same check
        env = Environment()
        machine = Machine(env, num_nodes=10)
        spare_nodes = list(machine.partition("spares", 2).nodes)
        arb = FleetArbiter(env, spare_nodes, rebalance_interval=0)
        sched_a = BatchScheduler(env, machine.partition("a", 4), label="fleet.a")
        arb.register("a", _FakeGM(sched_a), TenantQuota(reserved=2, burst=8))
        sched_b = BatchScheduler(env, machine.partition("b", 4), label="fleet.b")
        with pytest.raises(SimulationError, match="aggregate quota floors"):
            # pool so far = 2 spares + 4 + 4 = 10; floors 2 + 9 = 11
            arb.register("b", _FakeGM(sched_b), TenantQuota(reserved=9, burst=9))
        # the failed registration left no partial state behind
        assert "b" not in arb.tenants
        assert arb._expected_total == 6

    def test_tenant_spec_overlay(self):
        spec = TenantSpec(
            name="t07", preset="fig7", steps=5, priority=2,
            workload=dict(staging_nodes=13, spare=0),
        ).to_spec()
        assert spec.workload.steps == 5
        assert spec.workload.staging_nodes == 13
        assert spec.workload.spare == 0
        assert spec.builder["seed"] == 1  # the bundled preset's default
        assert spec.tenant.priority == 2
        assert spec.tenant.reserved is None  # derived from the built pool
        spec.validate()
