"""Unit tests for processes and the environment clock."""

import pytest

from repro.simkernel import Environment, FaultError, Interrupt, SimulationError


class TestEnvironment:
    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=7.5).now == 7.5

    def test_run_until_time(self, env):
        env.process(ticker(env, 10))
        env.run(until=3.5)
        assert env.now == 3.5

    def test_run_until_past_raises(self, env):
        env.process(ticker(env, 3))
        env.run(until=2)
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"
        assert env.now == 2.0

    def test_run_until_unreachable_event_raises(self, env):
        ev = env.event()
        env.process(ticker(env, 2))
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_peek_empty(self, env):
        assert env.peek() == float("inf")

    def test_deterministic_ordering_same_timestamp(self, env):
        order = []

        def proc(env, label):
            yield env.timeout(1)
            order.append(label)

        for label in "abc":
            env.process(proc(env, label))
        env.run()
        assert order == ["a", "b", "c"]


def ticker(env, n):
    for _ in range(n):
        yield env.timeout(1)


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def child(env):
            yield env.timeout(1)
            return 99

        collected = []

        def parent(env):
            value = yield env.process(child(env))
            collected.append(value)

        env.process(parent(env))
        env.run()
        assert collected == [99]

    def test_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("oops")

        caught = []

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError as e:
                caught.append(str(e))

        env.process(parent(env))
        env.run()
        assert caught == ["'oops'"]

    def test_unwaited_crash_surfaces_in_run(self, env):
        def crasher(env):
            yield env.timeout(1)
            raise RuntimeError("unwatched")

        env.process(crasher(env))
        with pytest.raises(RuntimeError, match="unwatched"):
            env.run()

    def test_yield_non_event_raises(self, env):
        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_is_alive_transitions(self, env):
        def proc(env):
            yield env.timeout(2)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_finished_process_is_freed_without_the_collector(self):
        """A process's bound resume callback refers back to the process; a
        finished process drops it, so reference counting alone frees it."""
        import gc
        import weakref

        def proc(env):
            yield env.timeout(1)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            env = Environment()
            ref = weakref.ref(env.process(proc(env)))
            env.run()
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_failed_process_is_freed_without_the_collector(self):
        """A process that ends with an exception holds it as its value; the
        traceback must not lead back to the process, so an unwatched
        failure is freed by reference counting too."""
        import gc
        import weakref

        def proc(env):
            yield env.timeout(1)
            raise FaultError("lost")

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            env = Environment()
            ref = weakref.ref(env.process(proc(env)))
            env.run()  # an unwatched FaultError does not crash the run
            assert env.swallowed_faults == 1
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_unwatched_failure_keeps_the_generator_frames(self):
        import traceback

        def failing_step(env):
            yield env.timeout(1)
            raise ValueError("boom")

        env = Environment()
        env.process(failing_step(env))
        with pytest.raises(ValueError, match="boom") as err:
            env.run()
        frames = [f.name for f in traceback.extract_tb(err.value.__traceback__)]
        assert frames[-1] == "failing_step"
        assert "_resume" not in frames


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as i:
                causes.append((env.now, i.cause))

        def killer(env, target):
            yield env.timeout(5)
            target.interrupt("reason")

        p = env.process(sleeper(env))
        env.process(killer(env, p))
        env.run()
        assert causes == [(5.0, "reason")]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            log.append(env.now)

        def killer(env, target):
            yield env.timeout(5)
            target.interrupt()

        p = env.process(sleeper(env))
        env.process(killer(env, p))
        env.run()
        assert log == [6.0]

    def test_stale_target_does_not_resume_twice(self, env):
        """After an interrupt, the original timeout firing must not resume
        the process a second time."""
        resumes = []

        def sleeper(env):
            try:
                yield env.timeout(10)
            except Interrupt:
                resumes.append("interrupted")
            yield env.timeout(20)
            resumes.append("done")

        def killer(env, target):
            yield env.timeout(5)
            target.interrupt()

        p = env.process(sleeper(env))
        env.process(killer(env, p))
        env.run()
        assert resumes == ["interrupted", "done"]

    def test_interrupt_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        errors = []

        def proc(env):
            try:
                env.active_process.interrupt()
            except SimulationError:
                errors.append(True)
            yield env.timeout(1)

        env.process(proc(env))
        env.run()
        assert errors == [True]
