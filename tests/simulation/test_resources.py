"""Unit and property tests for fair-share resources and memory."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    Environment,
    FairShareResource,
    MemoryResource,
    SimulationError,
)


@pytest.fixture()
def env():
    return Environment()


def run_jobs(env, resource, jobs):
    """Submit (start, demand) jobs; return list of (idx, finish_time)."""
    done = []

    def worker(i, start, demand, weight=1.0):
        if start > 0:
            yield env.timeout(start)
        job = resource.use(demand, weight=weight)
        yield job.event
        done.append((i, env.now))

    for i, spec in enumerate(jobs):
        env.process(worker(i, *spec))
    env.run()
    return sorted(done)


class TestFairShare:
    def test_single_job_runs_at_full_capacity(self, env):
        r = FairShareResource(env, capacity=2.0)
        done = run_jobs(env, r, [(0.0, 4.0)])
        assert done == [(0, pytest.approx(2.0))]

    def test_two_equal_jobs_share_equally(self, env):
        r = FairShareResource(env, 1.0)
        done = run_jobs(env, r, [(0.0, 1.0), (0.0, 1.0)])
        assert done == [(0, pytest.approx(2.0)), (1, pytest.approx(2.0))]

    def test_staggered_arrival_exact_times(self, env):
        # A alone 0..1 (1 unit done), then shares with B: A's 0.5 left at
        # rate 0.5 -> t=2; B then alone: 0.5 left at rate 1 -> t=2.5.
        r = FairShareResource(env, 1.0)
        done = run_jobs(env, r, [(0.0, 1.5), (1.0, 1.0)])
        assert done == [(0, pytest.approx(2.0)), (1, pytest.approx(2.5))]

    def test_weighted_sharing(self, env):
        # weight 2 vs 1: rates 2/3 and 1/3; both demand 1 ->
        # heavy at t=1.5; light got 0.5 by then, finishes 0.5 later at 2.0.
        r = FairShareResource(env, 1.0)
        done = run_jobs(env, r, [(0.0, 1.0, 2.0), (0.0, 1.0, 1.0)])
        assert done == [(0, pytest.approx(1.5)), (1, pytest.approx(2.0))]

    def test_zero_demand_completes_immediately(self, env):
        r = FairShareResource(env, 1.0)
        done = run_jobs(env, r, [(0.0, 0.0)])
        assert done == [(0, pytest.approx(0.0))]

    def test_capacity_increase_speeds_up(self, env):
        r = FairShareResource(env, 1.0)
        done = []

        def worker():
            job = r.use(2.0)
            yield job.event
            done.append(env.now)

        def booster():
            yield env.timeout(1.0)
            r.set_capacity(2.0)  # 1 unit left now served at 2/s

        env.process(worker())
        env.process(booster())
        env.run()
        assert done == [pytest.approx(1.5)]

    def test_capacity_decrease_slows_down(self, env):
        r = FairShareResource(env, 2.0)
        done = []

        def worker():
            job = r.use(4.0)
            yield job.event
            done.append(env.now)

        def throttler():
            yield env.timeout(1.0)  # 2 units done
            r.set_capacity(1.0)  # 2 left at 1/s

        env.process(worker())
        env.process(throttler())
        env.run()
        assert done == [pytest.approx(3.0)]

    def test_cancel_returns_remaining_demand(self, env):
        r = FairShareResource(env, 1.0)
        remaining = []

        def controller():
            job = r.use(10.0)
            yield env.timeout(3.0)
            remaining.append(r.cancel(job))

        env.process(controller())
        env.run()
        assert remaining == [pytest.approx(7.0)]

    def test_cancel_frees_capacity_for_others(self, env):
        r = FairShareResource(env, 1.0)
        done = []

        def victim():
            job = r.use(100.0)
            yield env.timeout(2.0)
            r.cancel(job)

        def beneficiary():
            job = r.use(3.0)
            yield job.event
            done.append(env.now)

        env.process(victim())
        env.process(beneficiary())
        env.run()
        # beneficiary: 1 unit by t=2 (rate 1/2), 2 left alone -> t=4
        assert done == [pytest.approx(4.0)]

    def test_cancel_finished_job_returns_zero(self, env):
        r = FairShareResource(env, 1.0)
        out = []

        def p():
            job = r.use(1.0)
            yield job.event
            out.append(r.cancel(job))

        env.process(p())
        env.run()
        assert out == [0.0]

    def test_invalid_arguments(self, env):
        with pytest.raises(ValueError):
            FairShareResource(env, 0.0)
        r = FairShareResource(env, 1.0)
        with pytest.raises(ValueError):
            r.use(-1.0)
        with pytest.raises(ValueError):
            r.use(1.0, weight=0.0)
        with pytest.raises(ValueError):
            r.set_capacity(-2.0)

    def test_completed_units_accounting(self, env):
        r = FairShareResource(env, 1.0)
        run_jobs(env, r, [(0.0, 2.0), (0.5, 3.0)])
        assert r.completed_units == pytest.approx(5.0)

    def test_active_jobs_signal(self, env):
        r = FairShareResource(env, 1.0)
        run_jobs(env, r, [(0.0, 2.0), (0.0, 2.0)])
        # Both active 0..4: integral = 2 * 4 = 8.
        assert r.active_jobs.integral(env.now) == pytest.approx(8.0)

    def test_utilization_tracking(self, env):
        r = FairShareResource(env, 1.0)
        cp = r.busy.checkpoint(0.0)
        done = run_jobs(env, r, [(0.0, 2.0)])
        env.run(until=4.0)
        # Busy 0..2 of 0..4.
        assert r.utilization(cp) == pytest.approx(0.5)

    def test_many_equal_jobs_finish_together(self, env):
        n = 20
        r = FairShareResource(env, 1.0)
        done = run_jobs(env, r, [(0.0, 1.0)] * n)
        assert all(t == pytest.approx(float(n)) for _, t in done)

    @pytest.mark.parametrize(
        "light", list(itertools.permutations([0.1e-12, 0.2e-12, 0.3e-12]))
    )
    def test_weight_resync_sums_in_submission_order(self, light):
        """When the heavy job leaves, ``1 + Σlight - 1`` falls under the
        resync threshold and the weight sum is rebuilt from the active
        jobs.  Float addition is order-sensitive (two of these six orders
        give 6e-13, four give 6.000000000000001e-13), so the jobs must be
        walked in submission order, not in a set's address order — else two
        runs of one seed can finish at different instants."""

        def run():
            env = Environment()
            r = FairShareResource(env, 1.0)
            heavy = r.use(0.5)
            finished = []
            for weight in light:
                r.use(1.0, weight=weight).event.callbacks.append(
                    lambda _: finished.append(env.now)
                )
            env.run(until=heavy.event)
            resynced = r._weight_sum
            env.run()
            assert len(finished) == 3
            return resynced, finished

        first, second = run(), run()
        assert first == second
        assert first[0] == (light[0] + light[1]) + light[2]

    def test_completion_queues_behind_events_already_due(self, env):
        """A lone completion may skip the queue only when nothing else is
        due at that instant: an event already queued for it fires first."""
        r = FairShareResource(env, 1.0)
        order = []
        r.use(1.0).event.callbacks.append(lambda _: order.append("done"))
        env.timeout(1.0).callbacks.append(lambda _: order.append("earlier"))
        env.run()
        assert order == ["earlier", "done"]

    def test_tied_completions_fire_before_what_their_callbacks_schedule(self, env):
        """Two jobs due together both go through the queue: the second is
        queued before the first one's callbacks run."""
        r = FairShareResource(env, 1.0)
        order = []

        def first_done(_event):
            order.append("a")
            r.use(0.0).event.callbacks.append(lambda _: order.append("follow-up"))

        r.use(1.0).event.callbacks.append(first_done)
        r.use(1.0).event.callbacks.append(lambda _: order.append("b"))
        env.run()
        assert order == ["a", "b", "follow-up"]

    def test_inline_completion_is_processed_like_a_queued_one(self, env):
        r = FairShareResource(env, 1.0)
        drawn_before = next(env._seq)
        job = r.use(2.0)
        assert env.run(until=job.event) == 2.0
        assert job.done and job.event.processed and job.event.ok
        # Timer and completion each drew a number: _seq counts events fired.
        assert next(env._seq) - drawn_before - 1 == 2
        assert env.peek() == float("inf")

    @given(
        demands=st.lists(
            st.floats(min_value=0.01, max_value=50.0),
            min_size=1,
            max_size=8,
        ),
        starts=st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=8,
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_conservation_property(self, demands, starts):
        """Total completion time == last-start + makespan of remaining work.

        For a work-conserving single server: the finish time of the whole
        batch equals the time the server spends busy plus idle gaps, and
        total service delivered equals total demand.
        """
        env = Environment()
        r = FairShareResource(env, 1.0)
        done = run_jobs(env, r, list(zip(starts[: len(demands)], demands)))
        assert len(done) == len(demands)
        assert r.completed_units == pytest.approx(sum(demands), rel=1e-6)
        # Busy-time integral equals total demand (capacity 1).
        assert r.busy.integral(env.now) == pytest.approx(sum(demands), rel=1e-6)

    @given(
        demands=st.lists(
            st.floats(min_value=0.05, max_value=20.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_simultaneous_jobs_finish_in_demand_order(self, demands):
        """With equal weights and simultaneous start, smaller demand finishes
        no later than larger demand (FairShare preserves demand order)."""
        env = Environment()
        r = FairShareResource(env, 1.0)
        done = dict(run_jobs(env, r, [(0.0, d) for d in demands]))
        order = sorted(range(len(demands)), key=lambda i: demands[i])
        finish = [done[i] for i in order]
        assert finish == sorted(finish)


class TestMemory:
    def test_allocate_release_cycle(self, env):
        m = MemoryResource(env, 100.0)
        m.allocate(60.0)
        assert m.allocated == 60.0
        assert m.overcommit == 0.0
        m.release(60.0)
        assert m.allocated == 0.0

    def test_overcommit_fraction(self, env):
        m = MemoryResource(env, 100.0)
        m.allocate(150.0)
        assert m.overcommit == pytest.approx(0.5)

    def test_pressure_callback_fired(self, env):
        seen = []
        m = MemoryResource(env, 100.0, on_pressure_change=seen.append)
        m.allocate(120.0)
        m.release(30.0)
        assert seen == [pytest.approx(0.2), pytest.approx(0.0)]

    def test_over_release_rejected(self, env):
        m = MemoryResource(env, 100.0)
        m.allocate(10.0)
        with pytest.raises(SimulationError):
            m.release(20.0)

    def test_peak_tracking(self, env):
        m = MemoryResource(env, 100.0)
        m.allocate(40.0)
        m.allocate(40.0)
        m.release(70.0)
        m.allocate(10.0)
        assert m.peak == pytest.approx(80.0)

    def test_negative_amounts_rejected(self, env):
        m = MemoryResource(env, 100.0)
        with pytest.raises(ValueError):
            m.allocate(-1.0)
        with pytest.raises(ValueError):
            m.release(-1.0)
