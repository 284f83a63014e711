"""Engine fast-path pins: differential identity vs the frozen reference
loop, tombstone semantics, and the run(until) defuse fix.

The optimization contract is *byte-identical schedules*: the inlined run
loop, monomorphic tie-break, tombstoning and the Messenger fast-send chain
must be observationally indistinguishable from the pre-PR engine kept in
``repro.simkernel._reference``.  The differential property test drives
seeded random workloads (timeouts, interrupts, conditions, explicit
cancels, fire-and-forget faults) through both engines and asserts the
complete schedule-call logs, process logs, final clocks and
``swallowed_faults`` match.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.simkernel import Environment, FaultError, Interrupt, Resource, Store, shuffle
from repro.simkernel._reference import ReferenceEnvironment
from repro.simkernel.events import NORMAL
from repro.spec import PipelineSpec, WorkloadSpec, build


# ---------------------------------------------------------------------------
# differential property test
# ---------------------------------------------------------------------------

def _spy_schedule(env, log):
    """Wrap env.schedule to record every scheduling decision.

    Every event on the heap got there through schedule(), so two engines
    with identical spy logs made identical scheduling decisions in an
    identical order — a stronger oracle than sampling process side effects.
    """
    orig = env.schedule

    def schedule(event, priority=NORMAL, delay=0.0):
        log.append((round(env.now, 9), priority, round(delay, 9), type(event).__name__))
        return orig(event, priority, delay)

    env.schedule = schedule


def _build_workload(env, seed, log):
    """Deterministic random mix of everything the engine supports."""
    rng = random.Random(seed)

    # 1. sleepers: plain repeated timeouts
    for i in range(rng.randint(1, 5)):
        delays = [rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]) for _ in range(rng.randint(1, 6))]

        def sleeper(env, i=i, delays=delays):
            for d in delays:
                yield env.timeout(d)
                log.append(("sleep", i, env.now))

        env.process(sleeper(env))

    # 2. interrupt pairs: the victim's abandoned target later fires (as a
    # dead no-op on the reference engine, as a tombstone on the optimized)
    for i in range(rng.randint(0, 3)):
        long = rng.choice([5.0, 7.0, 9.0])
        cut = rng.choice([1.0, 2.0, 3.0])

        def victim(env, i=i, long=long):
            try:
                yield env.timeout(long)
                log.append(("slept", i, env.now))
            except Interrupt as intr:
                log.append(("interrupted", i, env.now, str(intr.cause)))
                yield env.timeout(0.25)
                log.append(("recovered", i, env.now))

        proc = env.process(victim(env))

        def interrupter(env, proc=proc, cut=cut, i=i):
            yield env.timeout(cut)
            if proc.is_alive:
                proc.interrupt(cause=f"cut-{i}")

        env.process(interrupter(env))

    # 3. conditions: any_of/all_of over timers; the losers of any_of are
    # exactly the request-timeout pattern the tombstones exist for
    for i in range(rng.randint(0, 4)):
        kind = rng.choice(["any", "all"])
        delays = [rng.choice([0.5, 1.0, 2.0, 4.0]) for _ in range(rng.randint(2, 4))]

        def condproc(env, kind=kind, delays=delays, i=i):
            events = [env.timeout(d, value=d) for d in delays]
            cond = env.any_of(events) if kind == "any" else env.all_of(events)
            got = yield cond
            log.append(("cond", kind, i, env.now, len(got)))

        env.process(condproc(env))

    # 4. fire-and-forget failures: FaultError swallowed, plain defused
    for i in range(rng.randint(0, 3)):
        ev = env.event()
        if rng.random() < 0.5:
            ev.fail(FaultError(f"lost-{i}"))
        else:
            ev.fail(RuntimeError(f"handled-{i}"))
            ev.defuse()

    # 5. explicit cancels (no-op on the reference engine), including
    # cancel-at-fire-time races and post-cancel revival by a waiter
    for i in range(rng.randint(0, 4)):
        fire = rng.choice([1.0, 2.0, 3.0])
        when = rng.choice([0.0, 1.0, 2.0, 3.0])
        revive = rng.random() < 0.3

        timer = env.timeout(fire, value=i)

        def canceller(env, timer=timer, when=when, i=i):
            yield env.timeout(when)
            log.append(("cancel", i, env.now, env.cancel(timer) if True else None))

        def waiter(env, timer=timer, i=i):
            yield env.timeout(0.5)
            got = yield timer
            log.append(("revived", i, env.now, got))

        env.process(canceller(env))
        if revive:
            env.process(waiter(env))


def _run(env_cls, seed, tie_seed=None):
    env = env_cls() if tie_seed is None else env_cls(tie_breaker=shuffle(tie_seed))
    schedule_log, proc_log = [], []
    _spy_schedule(env, schedule_log)
    _build_workload(env, seed, proc_log)
    env.run()
    return schedule_log, proc_log, env.now, env.swallowed_faults


class TestDifferentialIdentity:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_matches_reference(self, seed):
        """Same workload, both engines, default tie-breaker: identical
        schedule logs, process logs, clocks, swallowed_faults — except the
        optimized cancel() returns True where the reference returns False."""
        ref = _run(ReferenceEnvironment, seed)
        opt = _run(Environment, seed)
        self._assert_equal(ref, opt)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           tie_seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_shuffle_matches_reference(self, seed, tie_seed):
        """The virtual tie-break path (SeededShuffle) is equally pinned."""
        ref = _run(ReferenceEnvironment, seed, tie_seed)
        opt = _run(Environment, seed, tie_seed)
        self._assert_equal(ref, opt)

    @staticmethod
    def _assert_equal(ref, opt):
        def scrub(entry):
            # cancel() legitimately differs: False on the reference engine,
            # possibly True on the optimized one.  Everything else is exact.
            if entry and entry[0] == "cancel":
                return entry[:3]
            return entry

        assert ref[0] == opt[0], "schedule-call logs diverged"
        assert [scrub(e) for e in ref[1]] == [scrub(e) for e in opt[1]]
        assert ref[2] == opt[2], "final clocks diverged"
        assert ref[3] == opt[3], "swallowed_faults diverged"


# ---------------------------------------------------------------------------
# tombstones
# ---------------------------------------------------------------------------

class TestTombstones:
    def test_cancel_refuses_untriggered_subscribed_processed_and_failed(self):
        env = Environment()
        pending = env.event()
        assert env.cancel(pending) is False  # untriggered

        timer = env.timeout(1.0)

        def waiter(env):
            yield timer

        env.process(timer and waiter(env))
        env.run(until=0.5)
        assert env.cancel(timer) is False  # has a subscriber

        done = env.timeout(0.1)
        env.run(until=1.5)
        assert env.cancel(done) is False  # already processed

        boom = env.event()
        boom.fail(FaultError("x"))
        assert env.cancel(boom) is False  # unobserved failure must surface
        env.run()
        assert env.swallowed_faults == 1

    def test_cancelled_timer_is_skipped_but_clock_still_advances(self):
        env = Environment()
        fired = []
        t = env.timeout(5.0)
        t.callbacks.clear()  # nobody waits
        assert env.cancel(t) is True
        env.process((lambda e: (yield e.timeout(1.0)) and None or fired.append(e.now))(env))
        env.run()
        # identical to the reference engine popping the dead timer:
        assert env.now == 5.0
        assert env.tombstones_skipped == 1

    def test_cancel_then_fire_race_same_timestamp(self):
        env = Environment()
        wake = env.timeout(1.0)   # pops first (lower eid) at t=1.0
        timer = env.timeout(1.0)  # the victim, same timestamp

        def canceller(env):
            yield wake
            assert env.cancel(timer) is True

        env.process(canceller(env))
        env.run()
        assert env.now == 1.0
        assert env.tombstones_skipped == 1
        assert timer.processed  # finalized, never dispatched

    def test_cancel_loses_race_once_popped(self):
        """Insertion order the other way: the timer pops before the would-be
        canceller wakes, so cancel() sees a processed event and refuses."""
        env = Environment()
        timer = env.timeout(1.0)

        def canceller(env):
            yield env.timeout(1.0)
            assert env.cancel(timer) is False

        env.process(canceller(env))
        env.run()
        assert env.tombstones_skipped == 0

    def test_revival_by_yield(self):
        env = Environment()
        timer = env.timeout(2.0, value="late")
        assert env.cancel(timer) is True
        got = []

        def waiter(env):
            yield env.timeout(1.0)
            got.append((yield timer))

        env.process(waiter(env))
        env.run()
        assert got == ["late"]
        assert env.tombstones_skipped == 0

    def test_compaction_drops_dead_timers_wholesale(self):
        env = Environment()
        timers = [env.timeout(float(i)) for i in range(2000)]
        for t in timers:
            assert env.cancel(t)
        # compaction fires whenever tombstones cross the floor AND outnumber
        # live entries; the remaining sub-floor tail is skipped at pop
        assert env.compactions >= 1
        assert len(env._queue) < 1000
        env.run()
        assert not env._queue
        # every cancelled timer was dropped without dispatch, and the
        # compacted horizon still advances the clock to the last timer
        assert env.tombstones_skipped == 2000
        assert env.now == 1999.0

    def test_interrupt_tombstones_the_abandoned_target(self):
        env = Environment()

        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass

        proc = env.process(victim(env))

        def interrupter(env):
            yield env.timeout(1.0)
            proc.interrupt()

        env.process(interrupter(env))
        env.run()
        assert env.tombstones_skipped == 1
        assert env.now == 100.0  # skip still advances the clock

    def test_any_of_loser_is_tombstoned(self):
        env = Environment()

        def racer(env):
            fast = env.timeout(1.0, value="fast")
            slow = env.timeout(50.0, value="slow")
            got = yield env.any_of([fast, slow])
            return list(got.values())

        proc = env.process(racer(env))
        env.run()
        assert proc.value == ["fast"]
        assert env.tombstones_skipped == 1


# ---------------------------------------------------------------------------
# run(until) defuse symmetry (satellite fix)
# ---------------------------------------------------------------------------

class TestRunUntilDefuse:
    def test_already_processed_failed_until_defuses_on_reraise(self):
        """The already-processed branch of run(until=event) must defuse the
        failure exactly like the in-loop branch does."""
        env = Environment()
        ev = env.event()
        ev.fail(FaultError("lost notify"))
        env.run()  # unobserved FaultError: swallowed, *not* defused
        assert env.swallowed_faults == 1
        assert not ev.defused
        with pytest.raises(FaultError, match="lost notify"):
            env.run(until=ev)
        assert ev.defused

    def test_in_loop_failed_until_still_defuses(self):
        """A FaultError `until` failure is swallowed at pop, then re-raised
        defused by the stop check — same as the reference engine."""
        env = Environment()
        ev = env.event()

        def failer(env):
            yield env.timeout(1.0)
            ev.fail(FaultError("boom"))

        env.process(failer(env))
        with pytest.raises(FaultError, match="boom"):
            env.run(until=ev)
        assert ev.defused


# ---------------------------------------------------------------------------
# substrate workloads: the runs the benchmark suite times, checked for their
# results here
# ---------------------------------------------------------------------------

class TestSubstrateWorkloads:
    def test_parallel_tickers_end_at_their_last_tick(self):
        env = Environment()

        def ticker(env):
            for _ in range(2000):
                yield env.timeout(1)

        for _ in range(5):
            env.process(ticker(env))
        env.run()
        assert env.now == 2000.0

    def test_bounded_store_drains(self):
        env = Environment()
        store = Store(env, capacity=16)

        def producer(env):
            for i in range(3000):
                yield store.put(i)

        def consumer(env):
            for _ in range(3000):
                yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert store.size == 0

    def test_contended_resource_is_released(self):
        env = Environment()
        res = Resource(env, capacity=4)

        def user(env):
            for _ in range(50):
                req = res.request()
                yield req
                yield env.timeout(0.01)
                res.release(req)

        for _ in range(20):
            env.process(user(env))
        env.run()
        assert res.count == 0

    def test_every_network_transfer_counted(self):
        env = Environment()
        machine = Machine(env, num_nodes=8)

        def sender(env, src, dst):
            for _ in range(200):
                yield machine.network.transfer(src, dst, 1e6)

        for i in range(4):
            env.process(sender(env, machine.nodes[i], machine.nodes[i + 4]))
        env.run()
        assert machine.network.stats.messages == 800

    def test_fig7_run_completes_every_step(self):
        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=20)
        pipe = build(env, PipelineSpec("fig7", workload=wl, builder=dict(seed=1)))
        pipe.run(settle=120)
        assert pipe.containers["csym"].completions == 20
