"""Unit tests for Store, FilterStore, blocking puts and reservations."""

import pytest

from repro.simkernel import Environment, FilterStore, Store


class TestStoreBasics:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_put_get_order(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for i in range(3):
                yield store.put(i)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(5.0, "late")]

    def test_bounded_put_blocks(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            times.append(env.now)
            yield store.put("b")
            times.append(env.now)

        def consumer(env):
            yield env.timeout(4)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0.0, 4.0]

    def test_high_water_tracked(self, env):
        store = Store(env, capacity=10)

        def producer(env):
            for i in range(5):
                yield store.put(i)
            yield store.get()

        env.process(producer(env))
        env.run()
        assert store.high_water == 5


class TestReservations:
    def test_reserve_occupies_capacity(self, env):
        store = Store(env, capacity=2)

        def proc(env):
            res = yield store.reserve()
            assert store.full is False
            yield store.put("item")
            assert store.full is True  # 1 item + 1 reservation = capacity
            store.fulfill(res, "reserved-item")
            assert store.size == 2

        env.process(proc(env))
        env.run()

    def test_fulfill_satisfies_waiting_get(self, env):
        store = Store(env, capacity=1)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append(item)

        def producer(env):
            res = yield store.reserve()
            yield env.timeout(3)
            store.fulfill(res, "x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == ["x"]

    def test_cancel_returns_slot(self, env):
        store = Store(env, capacity=1)
        log = []

        def proc(env):
            res = yield store.reserve()
            store.cancel_reservation(res)
            yield store.put("after-cancel")
            log.append(store.size)

        env.process(proc(env))
        env.run()
        assert log == [1]

    def test_cancel_queued_reservation(self, env):
        store = Store(env, capacity=1)
        granted = []

        def proc(env):
            r1 = yield store.reserve()
            r2 = store.reserve()  # queued: store is at capacity
            assert not r2.triggered
            store.cancel_reservation(r2)
            store.fulfill(r1, "a")
            granted.append(store.size)

        env.process(proc(env))
        env.run()
        assert granted == [1]

    def test_double_fulfill_rejected(self, env):
        from repro.simkernel import SimulationError

        store = Store(env, capacity=2)
        errors = []

        def proc(env):
            res = yield store.reserve()
            store.fulfill(res, "x")
            try:
                store.fulfill(res, "y")
            except SimulationError:
                errors.append(True)

        env.process(proc(env))
        env.run()
        assert errors == [True]


class TestFilterStore:
    def test_filtered_get(self, env):
        store = FilterStore(env)
        got = []

        def proc(env):
            yield store.put({"k": 1})
            yield store.put({"k": 2})
            item = yield store.get(lambda it: it["k"] == 2)
            got.append(item["k"])
            item = yield store.get()
            got.append(item["k"])

        env.process(proc(env))
        env.run()
        assert got == [2, 1]

    def test_filtered_get_waits_for_match(self, env):
        store = FilterStore(env)
        got = []

        def consumer(env):
            item = yield store.get(lambda it: it == "wanted")
            got.append((env.now, item))

        def producer(env):
            yield store.put("other")
            yield env.timeout(2)
            yield store.put("wanted")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(2.0, "wanted")]
        assert store.items == ["other"]
