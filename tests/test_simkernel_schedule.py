"""Schedule-ordering regressions: run(until) edges and tie-breakers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import (
    Environment,
    FaultError,
    InsertionOrder,
    SeededShuffle,
    shuffle,
)
from repro.simkernel.events import NORMAL, URGENT


class TestRunUntilEdgeCases:
    def test_already_processed_failed_until_raises(self):
        """An ``until`` event that already failed must raise its exception
        on a later run() call, not hand the exception back as a value."""
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defuse()
        env.run()  # processes (and swallows, defused) the failure
        assert event.processed and event.failed
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=event)

    def test_already_processed_succeeded_until_returns_value(self):
        env = Environment()
        event = env.event()
        event.succeed("done")
        env.run()
        assert env.run(until=event) == "done"

    def test_until_in_the_past_raises_value_error(self):
        env = Environment()
        env.run(until=10.0)
        with pytest.raises(ValueError, match="in the past"):
            env.run(until=5.0)

    def test_until_now_is_allowed(self):
        env = Environment()
        env.run(until=10.0)
        assert env.run(until=10.0) is None
        assert env.now == 10.0


def _capture_order(env, count, priorities=None):
    """Schedule ``count`` events at the same time; return firing order."""
    fired = []

    def waiter(env, event, tag):
        yield event
        fired.append(tag)

    for i in range(count):
        event = env.timeout(5.0)
        if priorities is not None:
            # Re-schedule the underlying event at a chosen priority.
            event = env.event()
            env.schedule(event, priority=priorities[i], delay=5.0)
        env.process(waiter(env, event, i))
    env.run()
    return fired


class TestDefaultTieBreaker:
    @given(count=st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_equal_slot_pops_are_stable(self, count):
        """Same (time, priority): the default tie-breaker preserves
        scheduling order exactly — the heap is effectively stable."""
        env = Environment()
        assert isinstance(env.tie_breaker, InsertionOrder)
        assert _capture_order(env, count) == list(range(count))

    @given(
        priorities=st.lists(
            st.sampled_from([URGENT, NORMAL]), min_size=2, max_size=30
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_urgent_before_normal_then_insertion_order(self, priorities):
        env = Environment()
        fired = _capture_order(env, len(priorities), priorities)
        expected = [i for i, p in enumerate(priorities) if p == URGENT] + [
            i for i, p in enumerate(priorities) if p == NORMAL
        ]
        assert fired == expected


class TestSeededShuffle:
    def test_same_seed_same_order(self):
        orders = [
            _capture_order(Environment(tie_breaker=shuffle(7)), 20)
            for _ in range(3)
        ]
        assert orders[0] == orders[1] == orders[2]

    def test_different_seeds_explore_different_orders(self):
        orders = {
            tuple(_capture_order(Environment(tie_breaker=shuffle(seed)), 20))
            for seed in range(8)
        }
        assert len(orders) > 1

    def test_shuffle_permutes_only_within_priority_groups(self):
        """Cross-slot ordering is untouched: URGENT still beats NORMAL at
        equal times, and each priority group is a permutation of itself."""
        priorities = [NORMAL, URGENT, NORMAL, URGENT, NORMAL, NORMAL, URGENT]
        fired = _capture_order(
            Environment(tie_breaker=shuffle(3)), len(priorities), priorities
        )
        urgent = [i for i, p in enumerate(priorities) if p == URGENT]
        normal = [i for i, p in enumerate(priorities) if p == NORMAL]
        assert sorted(fired[: len(urgent)]) == urgent
        assert sorted(fired[len(urgent):]) == normal

    def test_shuffle_preserves_time_order(self):
        env = Environment(tie_breaker=shuffle(5))
        fired = []

        def waiter(env, delay):
            yield env.timeout(delay)
            fired.append(env.now)

        for delay in (3.0, 1.0, 2.0, 1.0, 3.0):
            env.process(waiter(env, delay))
        env.run()
        assert fired == sorted(fired)

    def test_repr_names_seed(self):
        assert "42" in repr(SeededShuffle(42))

    @given(
        seed=st.integers(-(2**70), 2**70),
        eids=st.lists(st.integers(1, 2**64 - 1), min_size=2, max_size=40, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_inline_int_key_orders_like_tuple_key(self, seed, eids):
        """``schedule`` pushes ``rank << 64 | eid`` for a stock shuffle; it
        must carry the oracle's ``(rank, eid)`` and sort identically."""
        from repro.simkernel import Event

        tie_breaker = SeededShuffle(seed)
        env = Environment(tie_breaker=tie_breaker)

        def pushed_key(eid):
            env._queue.clear()
            env._eid = eid - 1
            env.schedule(Event(env))
            return env._queue[0][2]

        keys = {eid: pushed_key(eid) for eid in eids}
        for eid, key in keys.items():
            assert (key >> 64, key & (2**64 - 1)) == tie_breaker.key(eid)
        assert sorted(eids, key=keys.get) == sorted(eids, key=tie_breaker.key)


class TestSwallowedFaults:
    def test_unwaited_fault_failure_counts_not_raises(self):
        """A fire-and-forget action lost to an injected fault increments
        the counter and the run continues."""
        env = Environment()
        event = env.event()
        event.fail(FaultError("node crashed mid-notify"))
        survivor = []

        def bystander(env):
            yield env.timeout(1.0)
            survivor.append(env.now)

        env.process(bystander(env))
        env.run()
        assert env.swallowed_faults == 1
        assert survivor == [1.0]

    def test_unwaited_plain_failure_still_raises(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("a real bug"))
        with pytest.raises(RuntimeError, match="a real bug"):
            env.run()
        assert env.swallowed_faults == 0


class TestScheduleAt:
    NOW, AT = 0.004236644311168547, 22.01150146186728

    def test_lands_on_the_absolute_time(self):
        """``now + (at - now)`` overshoots ``at`` here; schedule_at does not."""
        from repro.simkernel import Event

        assert self.NOW + (self.AT - self.NOW) != self.AT
        env = Environment()
        env.run(until=self.NOW)
        fired = []
        ev = Event(env)
        ev._value = None
        ev.callbacks.append(lambda _e: fired.append(env.now))
        env.schedule_at(ev, self.AT)
        env.run()
        assert fired == [self.AT]

    @pytest.mark.parametrize("tie_breaker", [None, SeededShuffle(9)])
    def test_tie_key_matches_schedule(self, tie_breaker):
        from repro.simkernel import Event

        keys = []
        for push in ("schedule", "schedule_at"):
            env = Environment(tie_breaker=tie_breaker)
            env._eid = 41
            if push == "schedule":
                env.schedule(Event(env), URGENT, 2.0)
            else:
                env.schedule_at(Event(env), 2.0, URGENT)
            keys.append(env._queue[0][:3])
        assert keys[0] == keys[1]

    def test_past_time_rejected(self):
        from repro.simkernel import Event

        env = Environment()
        env.run(until=1.0)
        with pytest.raises(ValueError, match="past"):
            env.schedule_at(Event(env), 0.5)
