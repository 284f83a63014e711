"""Tests for global-manager operations and error paths."""

from types import SimpleNamespace

import pytest

from repro import Environment
from repro.cluster.scheduler import FREE, container_owner
from repro.simkernel.errors import SimulationError
from repro.spec import PipelineSpec, WorkloadSpec, build as build_spec


def build(env, spare=4, steps=10, **builder):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=13 + spare, spare=spare,
                      steps=steps)
    builder.setdefault("control_interval", 10_000)
    return build_spec(env, PipelineSpec("gm-ops", workload=wl,
                                        builder=dict(seed=0, **builder)))


class TestIncreaseDecrease:
    def test_increase_beyond_spares_raises(self):
        env = Environment()
        pipe = build(env, spare=2)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.increase("bonds", 5)

        env.process(ctl(env))
        with pytest.raises(SimulationError, match="spare"):
            pipe.run(settle=60)

    def test_decrease_clamped_to_units(self):
        """Asking to shrink by more than the container holds removes what it
        can while keeping at least the protocol invariants."""
        env = Environment()
        pipe = build(env)

        def ctl(env):
            yield env.timeout(1)
            freed = yield pipe.global_manager.decrease("bonds", 3)
            assert len(freed) == 3

        env.process(ctl(env))
        pipe.run(settle=120)
        assert pipe.containers["bonds"].units == 1

    def test_unknown_container_raises(self):
        env = Environment()
        pipe = build(env)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.increase("ghost", 1)

        env.process(ctl(env))
        with pytest.raises(SimulationError, match="unknown container"):
            pipe.run(settle=60)

    def test_freed_nodes_return_to_pool(self):
        env = Environment()
        pipe = build(env, spare=0)
        before = pipe.scheduler.free_nodes
        out = {}

        def ctl(env):
            yield env.timeout(1)
            out["freed"] = yield pipe.global_manager.decrease("csym", 1)

        env.process(ctl(env))
        pipe.run(settle=120)
        assert pipe.scheduler.free_nodes == before + 1
        assert [pipe.scheduler.owner(n) for n in out["freed"]] == [FREE]


class TestDependencyGraph:
    def test_dependents_follow_edges(self):
        env = Environment()
        pipe = build(env)
        gm = pipe.global_manager
        assert set(gm.dependents_of("bonds")) == {"csym", "cna"}
        assert gm.dependents_of("csym") == []
        assert gm.upstream_of("bonds") == ["helper"]
        gm.stop()

    def test_dependents_in_registration_order(self):
        """The offline cascade flushes in ``dependents_of`` order, so it is
        registration order, never set iteration order (the hash seed)."""
        env = Environment()
        pipe = build(env)
        gm = pipe.global_manager
        assert gm.dependents_of("helper") == ["bonds", "csym", "cna"]
        # Registration reads only the manager's container name.
        for name, upstream in [("viz9", "csym"), ("viz1", "bonds"),
                               ("viz5", "viz9"), ("viz0", "helper")]:
            gm.register(SimpleNamespace(container=SimpleNamespace(name=name)),
                        depends_on=upstream)
        assert gm.dependents_of("helper") == [
            "bonds", "csym", "cna", "viz9", "viz1", "viz5", "viz0"]
        assert gm.dependents_of("bonds") == ["csym", "cna", "viz9", "viz1", "viz5"]
        assert gm.dependents_of("csym") == ["viz9", "viz5"]

    def test_duplicate_registration_rejected(self):
        env = Environment()
        pipe = build(env)
        with pytest.raises(SimulationError):
            pipe.global_manager.register(pipe.managers["bonds"])
        pipe.global_manager.stop()

    def test_offline_cascade_order_downstream_first(self):
        env = Environment()
        pipe = build(env, steps=8)
        order = []
        original = pipe.global_manager.actions_taken

        def ctl(env):
            yield env.timeout(30)
            affected = yield pipe.global_manager.take_offline("bonds")
            order.extend(affected)

        env.process(ctl(env))
        pipe.run(settle=300)
        offline_actions = [a for a in original if a.startswith("offline")]
        # csym/cna (dependents) go down before bonds itself.
        assert offline_actions[-1] == "offline bonds"
        assert set(order) == {"bonds", "csym", "cna"}

    def test_offline_flush_strands_only_shed_chunks(self):
        """The teardown race: a copy of an already-delivered timestep's
        chunk still sits in the pruned stage's input writer.  The flush
        must not strand it to disk (post-processing would re-run it) and
        the ledger counts one suppression."""
        from repro.data import DataChunk

        env = Environment()
        pipe = build(env, steps=8)
        writer = pipe.containers["csym"].input_link.writers[0]
        flushed = []

        def ctl(env):
            while not pipe.fates.delivered(0):
                yield env.timeout(1)
            stale = DataChunk(timestep=0, nbytes=1e6, created_at=0.0,
                              chunk_id=next(env.chunk_ids))
            assert writer.buffer.try_insert(stale)
            before = {f.name for f in pipe.fs.files}
            yield pipe.global_manager.take_offline("csym")
            flushed.extend(f.name for f in pipe.fs.files if f.name not in before)

        env.process(ctl(env))
        pipe.run(settle=300)
        assert not [name for name in flushed if ".flush.ts000000" in name], flushed
        assert pipe.fates.suppressed == 1
        assert pipe.fates.violations == []

    def test_retire_returns_nodes_to_spares(self):
        env = Environment()
        pipe = build(env, spare=0, steps=8)

        def ctl(env):
            yield env.timeout(30)
            yield pipe.global_manager.retire("csym")

        env.process(ctl(env))
        pipe.run(settle=300)
        assert pipe.containers["csym"].offline
        assert pipe.scheduler.free_nodes == 3  # csym's allocation


class TestProcessesPerOperation:
    """A control operation is the GM operation, the messenger's request and
    the protocol runs that do the work: no process only starts another
    one, waits for it and returns its value."""

    @staticmethod
    def _started(monkeypatch, operation):
        from repro.simkernel.process import Process
        from repro.spec import load_preset

        env = Environment()
        pipe = build_spec(env, load_preset("fig7"))
        env.run(until=1.0)  # the pipeline is up and idle
        names = []
        init = Process.__init__

        def counting(self, env, generator, name=None):
            names.append(name)
            init(self, env, generator, name)

        monkeypatch.setattr(Process, "__init__", counting)
        proc = operation(pipe.global_manager)
        env.run(until=proc)
        return proc.value, names

    def test_set_stride_starts_three(self, monkeypatch):
        accepted, names = self._started(
            monkeypatch, lambda gm: gm.set_stride("csym", 2))
        assert accepted is True
        # gm-stride, the request, cp:set_stride
        assert len(names) == 3, names

    def test_one_node_increase_starts_five(self, monkeypatch):
        reply, names = self._started(
            monkeypatch, lambda gm: gm.increase("bonds", 1))
        assert reply["units"] == 5
        # cp:gm_increase, the request, cp:increase, and the new replica's
        # reader and worker
        assert len(names) == 5, names

    def test_replicas_start_no_process_per_chunk(self, monkeypatch):
        """A replica's worker runs each chunk's service inline: past t=1
        the only processes a ``Replica`` generator starts are the workers
        of replicas spawned in that window."""
        from repro.containers import Replica
        from repro.simkernel.process import Process
        from repro.spec import load_preset

        env = Environment()
        pipe = build_spec(env, load_preset("fig7"))
        env.run(until=1.0)
        started, spawned = [], []
        init, replica_init = Process.__init__, Replica.__init__

        def counting(self, env, generator, name=None):
            if getattr(generator, "__qualname__", "").startswith("Replica."):
                started.append(generator.__qualname__)
            init(self, env, generator, name)

        def spawning(self, *args, **kwargs):
            replica_init(self, *args, **kwargs)
            if not self.passive:
                spawned.append(self.name)

        monkeypatch.setattr(Process, "__init__", counting)
        monkeypatch.setattr(Replica, "__init__", spawning)
        assert pipe.run(settle=60)
        assert pipe.exit_log and spawned
        assert started == ["Replica._work"] * len(spawned)

    def test_disk_operations_start_no_process(self, monkeypatch):
        """Every disk write and read schedules one completion: a fig7 run
        past t=1 (its sink writes) and a failover run (its spill writes and
        replay reads) start no process from the file system or the spill
        store."""
        from repro.simkernel.process import Process
        from repro.spec import build_preset, load_preset

        started = []
        init = Process.__init__

        def counting(self, env, generator, name=None):
            qualname = getattr(generator, "__qualname__", "")
            if qualname.startswith(("ParallelFileSystem.", "SpillStore.")):
                started.append(qualname)
            init(self, env, generator, name)

        env = Environment()
        fig7 = build_spec(env, load_preset("fig7"))
        env.run(until=1.0)
        monkeypatch.setattr(Process, "__init__", counting)
        assert fig7.run(settle=60)
        env = Environment()
        failover = build_preset(env, "failover")
        assert failover.run(settle=120)
        assert fig7.fs.files and failover.failover.store.segments
        assert failover.failover.store.fs.bytes_read > 0
        assert started == []


class TestArbiterBackedGM:
    """The GM's fleet face: borrowing from (and returning loans to) a
    FleetArbiter when the tenant's own spare pool runs dry."""

    @staticmethod
    def wire(env, pipe, spares=2):
        from repro.cluster import Machine
        from repro.fleet import FleetArbiter, TenantQuota

        m = Machine(env, num_nodes=spares)
        arb = FleetArbiter(env, list(m.partition("spares", spares).nodes),
                           rebalance_interval=0)
        base = len(pipe.scheduler.pool.nodes)
        arb.register("tA", pipe.global_manager,
                     TenantQuota(reserved=base, burst=base + spares))
        return arb

    def test_spare_capacity_includes_arbiter_supply(self):
        env = Environment()
        pipe = build(env, spare=1)
        arb = self.wire(env, pipe, spares=2)
        assert pipe.global_manager.spare_capacity() == 3
        assert arb.available_to("tA") == 2
        pipe.global_manager.stop()

    def test_increase_borrows_from_arbiter_when_dry(self):
        env = Environment()
        pipe = build(env, spare=0)
        arb = self.wire(env, pipe)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.increase("bonds", 1)

        env.process(ctl(env))
        pipe.run(settle=60)
        assert pipe.containers["bonds"].units == 5
        sched = pipe.scheduler
        assert any(sched.is_borrowed(n) for n in sched.pool.nodes)
        assert [t for t in arb.trace if t[1] == "grant"]
        assert arb.violations == []

    def test_aborted_increase_returns_loan_to_arbiter(self):
        """An aborted grow must not convert a loan into a tenant hold: the
        surviving borrowed node goes back to the *arbiter's* spare pool,
        while the dead one is quarantined with the tenant that holds it."""
        env = Environment()
        pipe = build(env, spare=0)
        arb = self.wire(env, pipe)
        gm = pipe.global_manager
        out = {}

        def ctl(env):
            yield env.timeout(1)
            granted = arb.request("tA", 2)
            granted[0].fail()  # dies between the grant and the increase
            out["result"] = yield gm.increase("bonds", 2, nodes=granted)
            out["granted"] = granted

        env.process(ctl(env))
        pipe.run(settle=60)
        assert out["result"]["aborted"]
        dead, alive = out["granted"]
        assert alive in arb.spares
        assert alive not in pipe.scheduler.pool.nodes
        assert pipe.scheduler.owner(alive) is None  # expelled
        assert dead in pipe.scheduler.pool.nodes  # quarantined, not returned
        assert arb.violations == []

    def test_increase_beyond_arbiter_supply_still_raises(self):
        env = Environment()
        pipe = build(env, spare=0)
        arb = self.wire(env, pipe, spares=1)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.increase("bonds", 3)

        env.process(ctl(env))
        with pytest.raises(SimulationError, match="spare"):
            pipe.run(settle=60)
        assert [t for t in arb.trace if t[1] == "deny"]


class TestSchedulerSpecificAllocation:
    def test_allocate_specific_claims_exact_nodes(self, env):
        from repro.cluster import BatchScheduler, Machine

        machine = Machine(env, num_nodes=8)
        pool = machine.partition("p", 8)
        scheduler = BatchScheduler(env, pool)
        wanted = [pool[3], pool[5]]
        nodes = scheduler.allocate_specific(wanted, container_owner("x"))
        assert nodes == wanted
        assert scheduler.free_nodes == 6
        with pytest.raises(SimulationError):
            scheduler.allocate_specific([pool[3]], container_owner("y"))  # taken

    def test_allocate_specific_empty_rejected(self, env):
        from repro.cluster import BatchScheduler, Machine

        machine = Machine(env, num_nodes=4)
        scheduler = BatchScheduler(env, machine.partition("p", 4))
        with pytest.raises(ValueError):
            scheduler.allocate_specific([], container_owner("x"))
