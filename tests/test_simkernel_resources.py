"""Unit tests for Resource."""

import pytest

from repro.simkernel import Resource


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity(self, env):
        res = Resource(env, capacity=2)
        log = []

        def user(env, label):
            req = res.request()
            yield req
            log.append((env.now, label))
            yield env.timeout(1)
            res.release(req)

        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        assert log == [(0.0, "a"), (0.0, "b")]

    def test_fifo_queueing(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(env, label, hold):
            with (yield res.request()):
                order.append((env.now, label))
                yield env.timeout(hold)

        def spawn(env):
            env.process(user(env, "a", 2))
            yield env.timeout(0.1)
            env.process(user(env, "b", 1))
            env.process(user(env, "c", 1))

        env.process(spawn(env))
        env.run()
        assert order == [(0.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_context_manager_releases(self, env):
        res = Resource(env, capacity=1)

        def user(env):
            with (yield res.request()):
                yield env.timeout(1)

        env.process(user(env))
        env.run()
        assert res.count == 0

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        granted = []

        def holder(env):
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)

        def canceller(env):
            yield env.timeout(1)
            req = res.request()
            yield env.timeout(1)  # still queued behind holder
            assert not req.triggered
            req.cancel()

        def third(env):
            yield env.timeout(3)
            req = res.request()
            yield req
            granted.append(env.now)
            res.release(req)

        env.process(holder(env))
        env.process(canceller(env))
        env.process(third(env))
        env.run()
        assert granted == [10.0]

    def test_count_tracks_users(self, env):
        res = Resource(env, capacity=3)

        def user(env):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        for _ in range(2):
            env.process(user(env))
        env.run(until=1)
        assert res.count == 2
        env.run()
        assert res.count == 0

