"""Event-heap edge cases: the observable engine behavior (exceptions,
peek values, firing order) at the heap's corners — drained, far-future
and exact instants.
"""

import pytest

from repro.simulation import (
    EmptySchedule,
    Environment,
    SimulationError,
)


@pytest.fixture
def env():
    return Environment()


class TestDrainedQueue:
    def test_step_on_fresh_env_raises_empty_schedule(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_step_after_draining_raises_empty_schedule(self, env):
        env.timeout(1.0)
        env.step()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_on_fresh_env_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_after_draining_is_inf(self, env):
        env.timeout(2.0)
        env.run()
        assert env.peek() == float("inf")
        assert env.now == 2.0

    def test_run_on_empty_env_is_a_noop(self, env):
        env.run()
        assert env.now == 0.0

    def test_run_until_past_last_event_advances_to_horizon(self, env):
        env.timeout(1.0)
        env.run(until=50.0)
        assert env.now == 50.0


class TestFarFutureTimeouts:
    def test_timeouts_orders_of_magnitude_apart_fire_in_order(self, env):
        """Timeouts orders of magnitude apart must fire in order."""
        fired = []

        def waiter(tag, delay):
            yield env.timeout(delay)
            fired.append((tag, env.now))

        for tag, delay in [("c", 9e4), ("a", 0.5), ("d", 9e6), ("b", 90.0)]:
            env.process(waiter(tag, delay))
        env.run()
        assert fired == [
            ("a", 0.5), ("b", 90.0), ("c", 9e4), ("d", 9e6)
        ]

    def test_near_event_scheduled_after_far_peek(self, env):
        """Peeking a far-future event then scheduling a near one must not
        skip the near one."""
        fired = []

        def far():
            yield env.timeout(1000.0)
            fired.append(("far", env.now))

        def spawner():
            yield env.timeout(0.0)
            assert env.peek() == pytest.approx(1000.0)

            def near():
                yield env.timeout(1.0)
                fired.append(("near", env.now))

            env.process(near())

        env.process(far())
        env.process(spawner())
        env.run()
        assert fired == [("near", 1.0), ("far", 1000.0)]


class TestScheduleAt:
    def test_fires_at_the_exact_instant_in_push_order(self, env):
        """``now + (when - now)`` is not always ``when``; ``schedule_at``
        files the instant it is given, behind what is already due then."""
        when = 0.7 + 0.1  # 0.7999999999999999
        fired = []

        def starter():
            yield env.timeout(0.2)
            assert env.now + (when - env.now) != when
            env.timeout(when - env.now).callbacks.append(
                lambda _: fired.append(("timeout", env.now))
            )
            for tag in ("first", "second"):
                event = env.event()
                event.callbacks.append(lambda e, tag=tag: fired.append((tag, env.now, e.value)))
                env.schedule_at(event, when)
                assert event.triggered and not event.processed

        env.process(starter())
        while env.peek() < float("inf"):
            env.step()
        assert fired[-2:] == [("first", when, None), ("second", when, None)]
        assert fired[0][0] == "timeout" and fired[0][1] != when

    def test_rejects_the_past_like_a_negative_timeout(self, env):
        env.timeout(2.0)
        env.run()
        with pytest.raises(ValueError, match="negative timeout delay"):
            env.schedule_at(env.event(), 1.0)
        env.schedule_at(env.event(), 2.0)  # "now" is allowed
        env.run()
        assert env.now == 2.0

    def test_rejects_an_event_already_triggered(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            env.schedule_at(event, 1.0)
