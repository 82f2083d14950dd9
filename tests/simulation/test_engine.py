"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.simulation import (
    EmptySchedule,
    Environment,
    Event,
    SimulationError,
)


@pytest.fixture()
def env():
    return Environment()


class TestEnvironmentBasics:
    def test_initial_time_defaults_to_zero(self, env):
        assert env.now == 0.0

    def test_initial_time_override(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_number_advances_clock(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_backwards_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(3.0)
        assert env.peek() == 3.0


class TestTimeout:
    def test_timeout_fires_at_right_time(self, env):
        times = []

        def p():
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(p())
        env.run()
        assert times == [2.5]

    def test_timeout_value_passed_through(self, env):
        got = []

        def p():
            v = yield env.timeout(1.0, value="hello")
            got.append(v)

        env.process(p())
        env.run()
        assert got == ["hello"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self, env):
        times = []

        def p():
            yield env.timeout(0.0)
            times.append(env.now)

        env.process(p())
        env.run()
        assert times == [0.0]

    def test_same_time_events_fire_in_scheduling_order(self, env):
        order = []

        def p(name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abcd":
            env.process(p(name))
        env.run()
        assert order == list("abcd")


class TestEvent:
    def test_manual_succeed_delivers_value(self, env):
        evt = env.event()
        got = []

        def waiter():
            got.append((yield evt))

        def firer():
            yield env.timeout(1.0)
            evt.succeed(42)

        env.process(waiter())
        env.process(firer())
        env.run()
        assert got == [42]

    def test_double_trigger_raises(self, env):
        evt = env.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_failed_event_raises_in_waiter(self, env):
        evt = env.event()
        caught = []

        def waiter():
            try:
                yield evt
            except RuntimeError as exc:
                caught.append(str(exc))

        def firer():
            yield env.timeout(1.0)
            evt.fail(RuntimeError("boom"))

        env.process(waiter())
        env.process(firer())
        env.run()
        assert caught == ["boom"]

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_yield_already_processed_event_resumes_immediately(self, env):
        evt = env.event()
        evt.succeed("early")
        got = []

        def p():
            yield env.timeout(5.0)
            got.append((yield evt))
            got.append(env.now)

        env.process(p())
        env.run()
        assert got == ["early", 5.0]


class TestProcess:
    def test_return_value_via_run_until(self, env):
        def p():
            yield env.timeout(1.0)
            return "result"

        assert env.run(until=env.process(p())) == "result"

    def test_process_is_event_joinable(self, env):
        def child(d):
            yield env.timeout(d)
            return d

        def parent():
            results = yield env.all_of([env.process(child(d)) for d in (3, 1, 2)])
            return sorted(results.values())

        assert env.run(until=env.process(parent())) == [1, 2, 3]

    def test_exception_in_waited_process_propagates(self, env):
        def bad():
            yield env.timeout(1.0)
            raise ValueError("broken child")

        def parent():
            with pytest.raises(ValueError, match="broken child"):
                yield env.process(bad())
            return "handled"

        assert env.run(until=env.process(parent())) == "handled"

    def test_unhandled_exception_crashes_run(self, env):
        def bad():
            yield env.timeout(1.0)
            raise ValueError("unhandled")

        env.process(bad())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_non_event_rejected(self, env):
        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(TypeError):
            env.run()

    def test_run_until_event_never_firing_raises(self, env):
        evt = env.event()
        with pytest.raises(SimulationError):
            env.run(until=evt)


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def p():
            result = yield env.all_of([env.timeout(5, "a"), env.timeout(1, "b")])
            return (env.now, sorted(result.values()))

        now, values = env.run(until=env.process(p()))
        assert now == 5.0
        assert values == ["a", "b"]

    def test_empty_all_of_fires_immediately(self, env):
        def p():
            yield env.all_of([])
            return env.now

        assert env.run(until=env.process(p())) == 0.0

    def test_condition_with_failed_event_fails(self, env):
        evt = env.event()

        def firer():
            yield env.timeout(1.0)
            evt.fail(RuntimeError("inner"))

        def p():
            with pytest.raises(RuntimeError, match="inner"):
                yield env.all_of([evt, env.timeout(10.0)])
            return "ok"

        env.process(firer())
        assert env.run(until=env.process(p())) == "ok"

    def test_cross_environment_event_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            env.all_of([Event(other)])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(i):
                yield env.timeout(i * 0.1)
                for k in range(3):
                    yield env.timeout(0.37)
                    trace.append((round(env.now, 9), i, k))

            for i in range(5):
                env.process(worker(i))
            env.run()
            return trace

        assert build_and_run() == build_and_run()
