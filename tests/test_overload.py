"""Overload robustness: credits, shed accounting, and the brownout ladder."""

import itertools

import pytest

from repro.simkernel import Environment, Store
from repro.data import DataChunk
from repro.datatap import DataTapLink, DataTapReader, DataTapWriter, NoPullScheduler
from repro.fate import REFUSED, SHED, SUPPRESSED, FateLedger
from repro.overload import DegradationTrace, LinkCredits, ShedLedger


#: chunk ids for chunks made outside a pipeline run
_ids = itertools.count()


def chunk(ts=0, nbytes=1000):
    return DataChunk(timestep=ts, nbytes=nbytes, natoms=10, chunk_id=next(_ids))


class TestShedLedger:
    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="unknown shed reason"):
            FateLedger().shed(0, "bonds", "because", 1.0)

    def test_records_accumulate_by_step(self):
        fates = FateLedger()
        ledger = ShedLedger(fates)
        assert fates.shed(3, "lammps", "backpressure_stride", 10.0) == SHED
        assert fates.shed(5, "bonds", "container_stride", 12.0, chunk_id=7) == SHED
        assert ledger.steps() == {3, 5}
        assert ledger.by_reason() == {
            "backpressure_stride": 1, "container_stride": 1,
        }
        assert ledger.shed_fraction(10) == pytest.approx(0.2)

    def test_delivered_steps_suppressed(self):
        fates = FateLedger()
        fates.deliver("pipeline", 4, 19.0)
        assert fates.shed(4, "bonds", "offline_prune", 20.0) == SUPPRESSED
        assert fates.shed(5, "bonds", "offline_prune", 20.0) == SHED
        assert fates.suppressed == 1
        assert ShedLedger(fates).steps() == {5}
        assert fates.violations == []

    def test_same_decision_multiple_records_is_one_decision(self):
        # an offline flush touches each writer's fragment of the step:
        # several records, one decision — not a double-count
        fates = FateLedger()
        ledger = ShedLedger(fates)
        assert fates.shed(2, "csym", "offline_prune", 30.0, chunk_id=1) == SHED
        assert fates.shed(2, "csym", "offline_prune", 30.0, chunk_id=2) == SHED
        assert ledger.decisions() == {2: {("csym", "offline_prune")}}
        assert len(ledger) == 2
        assert fates.violations == []
        # a second, distinct decision is refused where it is written
        assert fates.shed(2, "csym", "container_stride", 31.0) == REFUSED
        assert len(ledger) == 2
        assert len(fates.violations) == 1


class FakeWriter:
    def __init__(self, name, link):
        self.name = name
        self.link = link
        self.paused = False
        self._pending_meta = []
        self.pushed = []

    def needs_delivery(self, chunk_id):
        return True

    def spawn_metadata_push(self, chunk):
        self.pushed.append(chunk.chunk_id)


class TestLinkCredits:
    def make(self, window=2):
        env = Environment()
        link = type("L", (), {"name": "l"})()
        credits = LinkCredits(env, link, window=window)
        return env, link, credits

    def test_window_gates_acquisition(self):
        _, _, credits = self.make(window=2)
        a, b, c = chunk(0), chunk(1), chunk(2)
        assert credits.try_acquire("w", a.chunk_id)
        assert credits.try_acquire("w", b.chunk_id)
        assert not credits.try_acquire("w", c.chunk_id)
        assert credits.outstanding == 2

    def test_redispatch_rides_existing_credit(self):
        _, _, credits = self.make(window=1)
        a = chunk(0)
        assert credits.try_acquire("w", a.chunk_id)
        # the same chunk re-dispatched (recovery) does not need a new credit
        assert credits.try_acquire("w", a.chunk_id)
        assert credits.outstanding == 1

    def test_release_pumps_deferred_in_order(self):
        _, link, credits = self.make(window=1)
        writer = FakeWriter("w", link)
        a, b, c = chunk(0), chunk(1), chunk(2)
        assert credits.try_acquire("w", a.chunk_id)
        credits.defer(writer, b)
        credits.defer(writer, c)
        assert credits.backlog == 2
        credits.release(a.chunk_id)
        assert writer.pushed == [b.chunk_id]
        credits.release(b.chunk_id)
        assert writer.pushed == [b.chunk_id, c.chunk_id]

    def test_release_is_idempotent(self):
        _, _, credits = self.make(window=1)
        a = chunk(0)
        credits.try_acquire("w", a.chunk_id)
        credits.release(a.chunk_id)
        credits.release(a.chunk_id)  # bypassing traffic completing: no-op
        assert credits.outstanding == 0

    def test_resize_floors_at_min_window_and_pumps(self):
        _, link, credits = self.make(window=1)
        writer = FakeWriter("w", link)
        a, b = chunk(0), chunk(1)
        credits.try_acquire("w", a.chunk_id)
        credits.defer(writer, b)
        credits.resize(0)
        assert credits.window == 1
        credits.resize(4)
        assert writer.pushed == [b.chunk_id]

    def test_paused_writer_defers_to_pending_meta(self):
        _, link, credits = self.make(window=1)
        writer = FakeWriter("w", link)
        writer.paused = True
        a, b = chunk(0), chunk(1)
        credits.try_acquire("w", a.chunk_id)
        credits.defer(writer, b)
        credits.release(a.chunk_id)
        # pump hands the chunk to the pause backlog instead of pushing
        assert writer.pushed == []
        assert writer._pending_meta == [b]

    def test_forget_writer_drops_credits_and_queue(self):
        _, link, credits = self.make(window=1)
        gone = FakeWriter("gone", link)
        stays = FakeWriter("stays", link)
        a, b, c = chunk(0), chunk(1), chunk(2)
        credits.try_acquire("gone", a.chunk_id)
        credits.defer(gone, b)
        credits.defer(stays, c)
        credits.forget_writer("gone")
        assert credits.outstanding == 1  # stays' chunk got the freed credit
        assert stays.pushed == [c.chunk_id]
        assert gone.pushed == []


class TestCreditsOnRealLink:
    def test_window_throttles_metadata_but_all_deliver(self, env, machine, messenger):
        link = DataTapLink(env, messenger, "credited-link")
        writer = DataTapWriter(env, messenger, machine.nodes[0], name="w0")
        link.add_writer(writer)
        queue = Store(env, capacity=8, name="q0")
        reader = DataTapReader(env, messenger, machine.nodes[4], "r0", queue,
                               NoPullScheduler(env))
        link.add_reader(reader)
        link.credits = LinkCredits(env, link, window=1)
        got = []

        def producer(env):
            for ts in range(4):
                yield writer.write(chunk(ts=ts, nbytes=1e6))

        def consumer(env):
            while True:
                c = yield queue.get()
                got.append(c.timestep)

        env.process(producer(env))
        env.process(consumer(env))
        env.run(until=60)
        # every chunk still arrives exactly once, in order...
        assert got == [0, 1, 2, 3]
        # ...but at most one was ever in flight: the rest were deferred
        assert link.credits.deferred_total >= 3
        assert link.credits.outstanding == 0


class TestDegradationTrace:
    def test_levels_and_intervals(self):
        trace = DegradationTrace()
        assert not trace.degraded and not trace.fully_restored
        trace.record(10.0, "backpressure", "stride_up", 1, stride=2)
        assert trace.degraded
        trace.record(20.0, "brownout", "stride", 1)
        trace.record(30.0, "brownout", "undo_stride", 0)
        assert trace.degraded  # backpressure still above 0
        trace.record(40.0, "backpressure", "stride_down", 0, stride=1)
        assert not trace.degraded
        assert trace.fully_restored
        assert trace.time_in_degraded() == pytest.approx(30.0)

    def test_recovery_dwell_measures_last_unwind(self):
        trace = DegradationTrace()
        trace.record(10.0, "brownout", "stride", 1)
        trace.record(50.0, "brownout", "undo_stride", 0)
        assert trace.recovery_dwell == pytest.approx(40.0)

    def test_reentry_opens_new_interval(self):
        trace = DegradationTrace()
        trace.record(10.0, "brownout", "steal", 1)
        trace.record(20.0, "brownout", "undo_steal", 0)
        trace.record(100.0, "brownout", "offline", 1)
        trace.record(130.0, "brownout", "undo_offline", 0)
        assert trace.time_in_degraded() == pytest.approx(40.0)
        assert trace.fully_restored


@pytest.fixture(scope="module")
def overload_result():
    from repro.experiments.figures import run_overload

    return run_overload(seed=1, steps=24)


class TestOverloadAcceptance:
    """The PR's acceptance scenario: a burst that wedges the unmanaged
    producer degrades gracefully under management and fully restores."""

    def test_burst_wedges_the_unmanaged_producer(self, overload_result):
        baseline = overload_result["unmanaged"]
        assert not baseline["finished"]
        assert baseline["blocked_seconds"] > 100.0

    def test_managed_run_degrades_and_fully_restores(self, overload_result):
        managed = overload_result["managed"]
        assert managed["finished"]
        assert managed["fully_restored"], managed["degradation_steps"]
        assert managed["final_stride"] == 1
        assert managed["offline_containers"] == []
        assert overload_result["ok"]

    def test_ladder_escalates_and_unwinds_in_order(self, overload_result):
        steps = overload_result["managed"]["degradation_steps"]
        brownout = [s for s in steps if s["kind"] == "brownout"]
        assert any(s["action"] in ("steal", "stride", "offline", "increase")
                   for s in brownout)
        undos = [s for s in brownout if s["action"].startswith("undo_")]
        assert undos, "ladder never de-escalated"
        # the trace ends fully unwound: the last brownout step is level 0
        assert brownout[-1]["level"] == 0
        # backpressure raised the driver stride and brought it back down
        bp = [s for s in steps if s["kind"] == "backpressure"]
        assert any(s["action"] == "stride_up" for s in bp)
        assert bp[-1]["detail"]["stride"] == 1

    def test_every_timestep_has_exactly_one_fate(self, overload_result):
        managed = overload_result["managed"]
        assert managed["unaccounted_steps"] == []
        assert managed["delivered_steps"] + managed["shed_steps"] == 24

    def test_sla_holds_for_delivered_steps(self, overload_result):
        assert overload_result["managed"]["sla_compliance_pct"] >= 90.0


class TestReactivateOrdering:
    def test_credits_reinstalled_before_writers_resume(self):
        """Regression pin for the reactivate race: the credit window must
        be reset *before* the paused writers resume, so the first
        post-recovery dispatch is gated by the fresh window rather than
        going out against the stale (or collapsed) one."""
        from repro.overload.scenario import (
            build_overload_pipeline as build_managed,
            overload_burst_plan,
        )

        env = Environment()
        pipe = build_managed(env, steps=16, seed=1)
        plan = overload_burst_plan(1, pipe)
        if plan.events:
            pipe.arm_faults(plan)

        ops = []
        for lname, link in pipe.links.items():
            assert isinstance(link.credits, LinkCredits), lname
            orig_reset = link.credits.reset

            def reset(_orig=orig_reset, _l=lname):
                ops.append(("reset", _l, env.now))
                return _orig()

            link.credits.reset = reset
            orig_resume = link.resume_writers

            def resume(_orig=orig_resume, _l=lname):
                ops.append(("resume", _l, env.now))
                return _orig()

            link.resume_writers = resume

        assert pipe.run(settle=600)
        reactivations = [a for a in pipe.global_manager.actions_taken
                         if a.startswith("reactivate")]
        assert reactivations, "burst never pruned+reactivated a stage"
        resets = [i for i, op in enumerate(ops) if op[0] == "reset"]
        assert resets, "reactivate never reset a credit window"
        for i in resets:
            _, lname, at = ops[i]
            following = next(
                (op for op in ops[i + 1:] if op[1] == lname), None
            )
            assert following is not None, ops[i:]
            # the very next touch of this link is the resume, at the same
            # instant — reset-then-resume, never the other way around
            assert following[0] == "resume" and following[2] == at, ops[i:]
