"""Retry/timeout/backoff policies in the failure-recovery paths.

Covers :class:`repro.core.RetryPolicy` itself, the bounded-retry +
backoff behaviour it induces in ``run_sender_controlled`` /
``run_receiver_controlled`` (including cascading multi-worker failures
and the late-failure re-pull round of Fig 6b), and the question
dispatcher's migration retry with exponential backoff.
"""

import pytest

from repro.core import (
    PartitionAbort,
    RetryPolicy,
    WorkerFailed,
    run_receiver_controlled,
    run_sender_controlled,
)
from repro.simulation import Environment, FailureSchedule


class TestRetryPolicyObject:
    def test_default_is_unbounded_no_backoff(self):
        policy = RetryPolicy()
        assert not policy.exhausted(10**6)
        assert policy.delay(0) == 0.0

    def test_exhausted_counts_recovery_rounds(self):
        policy = RetryPolicy(max_rounds=2)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_zero_budget(self):
        assert RetryPolicy(max_rounds=0).exhausted(1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=5.0
        )
        assert [policy.delay(i) for i in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_rounds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class _FakeCluster:
    """Executor harness: per-node speeds and scripted failures."""

    def __init__(self, env, speeds, fail_at=None, fail_delay=None):
        self.env = env
        self.speeds = speeds
        #: node -> items it may process before dying.
        self.fail_at = fail_at or {}
        #: node -> extra simulated seconds spent before its failure fires.
        self.fail_delay = fail_delay or {}
        self.processed: dict[int, list] = {n: [] for n in speeds}

    def executor(self, nid, items):
        budget = self.fail_at.get(nid)
        for i, item in enumerate(items):
            if budget is not None and len(self.processed[nid]) >= budget:
                delay = self.fail_delay.get(nid, 0.0)
                if delay > 0:
                    yield self.env.timeout(delay)
                raise WorkerFailed(nid, items[i:])
            yield self.env.timeout(item / self.speeds[nid])
            self.processed[nid].append(item)


def _run(env, gen):
    return env.run(until=env.process(gen))


class TestSenderControlledRetry:
    def test_budget_exhaustion_aborts(self):
        env = Environment()
        # Worker 1 dies immediately; with a zero budget the first
        # recovery round is already over the line.
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0}, fail_at={1: 0})

        def main():
            yield from run_sender_controlled(
                env, [1.0] * 6, [(0, 0.5), (1, 0.5)], cluster.executor,
                interleaved=False, policy=RetryPolicy(max_rounds=0),
            )

        with pytest.raises(PartitionAbort, match="retry budget exhausted"):
            _run(env, main())

    def test_budget_allows_recovery(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0}, fail_at={1: 2})

        def main():
            return (
                yield from run_sender_controlled(
                    env, [1.0] * 12, [(0, 0.5), (1, 0.5)], cluster.executor,
                    interleaved=False, policy=RetryPolicy(max_rounds=1),
                )
            )

        _run(env, main())
        assert len(cluster.processed[0]) + len(cluster.processed[1]) == 12

    def test_cascading_failures_within_budget(self):
        env = Environment()
        # Node 1 dies in the first round; node 2 survives it but dies
        # during the recovery round, forcing a second one.
        cluster = _FakeCluster(
            env, {0: 1.0, 1: 1.0, 2: 1.0}, fail_at={1: 1, 2: 6}
        )

        def main():
            yield from run_sender_controlled(
                env, [1.0] * 15, [(0, 1.0), (1, 1.0), (2, 1.0)],
                cluster.executor, interleaved=False,
                policy=RetryPolicy(max_rounds=4),
            )

        _run(env, main())
        total = sum(len(v) for v in cluster.processed.values())
        assert total == 15
        assert len(cluster.processed[1]) == 1
        assert len(cluster.processed[2]) == 6

    def test_cascading_failures_beyond_budget_abort(self):
        env = Environment()
        # Same cascade, but a one-round budget cannot absorb the second
        # failure.
        cluster = _FakeCluster(
            env, {0: 1.0, 1: 1.0, 2: 1.0}, fail_at={1: 1, 2: 6}
        )

        def main():
            yield from run_sender_controlled(
                env, [1.0] * 15, [(0, 1.0), (1, 1.0), (2, 1.0)],
                cluster.executor, interleaved=False,
                policy=RetryPolicy(max_rounds=1),
            )

        with pytest.raises(PartitionAbort, match="retry budget exhausted"):
            _run(env, main())

    def test_backoff_delays_recovery_round(self):
        def run_with(policy):
            env = Environment()
            cluster = _FakeCluster(env, {0: 1.0, 1: 1.0}, fail_at={1: 0})

            def main():
                yield from run_sender_controlled(
                    env, [1.0] * 4, [(0, 0.5), (1, 0.5)], cluster.executor,
                    interleaved=False, policy=policy,
                )

            _run(env, main())
            return env.now

        fast = run_with(RetryPolicy(max_rounds=3))
        slow = run_with(RetryPolicy(max_rounds=3, backoff_base_s=7.0))
        assert slow == pytest.approx(fast + 7.0)

    def test_interleaved_with_policy(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0}, fail_at={1: 1})

        def main():
            yield from run_sender_controlled(
                env, [float(i) for i in range(8, 0, -1)],
                [(0, 0.5), (1, 0.5)], cluster.executor,
                interleaved=True, policy=RetryPolicy(max_rounds=2),
            )

        _run(env, main())
        total = sum(len(v) for v in cluster.processed.values())
        assert total == 8


class TestReceiverControlledRetry:
    def test_late_failure_triggers_repull_round(self):
        env = Environment()
        # Node 1 grabs a chunk, stalls 50 s, then dies — long after node 0
        # drained every other chunk and exited its puller.  The returned
        # chunk must be re-pulled in a fresh round by the survivor.
        cluster = _FakeCluster(
            env, {0: 1.0, 1: 1.0}, fail_at={1: 0}, fail_delay={1: 50.0}
        )

        def main():
            yield from run_receiver_controlled(
                env, [1.0] * 8, [0, 1], cluster.executor, chunk_size=2,
                policy=RetryPolicy(max_rounds=2),
            )

        _run(env, main())
        assert len(cluster.processed[0]) == 8
        assert cluster.processed[1] == []
        assert env.now >= 50.0  # the re-pull round ran after the failure

    def test_late_failure_beyond_budget_aborts(self):
        env = Environment()
        cluster = _FakeCluster(
            env, {0: 1.0, 1: 1.0}, fail_at={1: 0}, fail_delay={1: 50.0}
        )

        def main():
            yield from run_receiver_controlled(
                env, [1.0] * 8, [0, 1], cluster.executor, chunk_size=2,
                policy=RetryPolicy(max_rounds=0),
            )

        with pytest.raises(PartitionAbort, match="retry budget exhausted"):
            _run(env, main())

    def test_backoff_before_repull(self):
        def run_with(policy):
            env = Environment()
            cluster = _FakeCluster(
                env, {0: 1.0, 1: 1.0}, fail_at={1: 0}, fail_delay={1: 20.0}
            )

            def main():
                yield from run_receiver_controlled(
                    env, [1.0] * 6, [0, 1], cluster.executor, chunk_size=2,
                    policy=policy,
                )

            _run(env, main())
            return env.now

        fast = run_with(RetryPolicy(max_rounds=2))
        slow = run_with(RetryPolicy(max_rounds=2, backoff_base_s=5.0))
        assert slow == pytest.approx(fast + 5.0)

    def test_cascading_multi_worker_failures(self):
        env = Environment()
        # Nodes 1 and 2 both die late with chunks in hand; node 0 mops up
        # across two re-pull rounds.
        cluster = _FakeCluster(
            env,
            {0: 1.0, 1: 1.0, 2: 1.0},
            fail_at={1: 0, 2: 2},
            fail_delay={1: 30.0, 2: 60.0},
        )

        def main():
            yield from run_receiver_controlled(
                env, [1.0] * 12, [0, 1, 2], cluster.executor, chunk_size=2,
                policy=RetryPolicy(max_rounds=4),
            )

        _run(env, main())
        total = sum(len(v) for v in cluster.processed.values())
        assert total == 12
        assert cluster.processed[1] == []
        assert len(cluster.processed[2]) == 2

    def test_immediate_failures_do_not_consume_budget(self):
        env = Environment()
        # Node 1 fails instantly; node 0 drains everything in round one —
        # no re-pull round, so even a zero budget must succeed.
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0}, fail_at={1: 0})

        def main():
            yield from run_receiver_controlled(
                env, [1.0] * 8, [0, 1], cluster.executor, chunk_size=2,
                policy=RetryPolicy(max_rounds=0),
            )

        _run(env, main())
        assert len(cluster.processed[0]) == 8


class TestDispatcherRetry:
    def _system(self, **kwargs):
        from repro.core import DistributedQASystem, SystemConfig

        return DistributedQASystem(SystemConfig(**kwargs))

    def test_backoff_delay_grows_and_caps(self):
        from repro.core.dispatcher import _BACKOFF

        delays = [_BACKOFF.delay(i) for i in range(12)]
        assert delays == sorted(delays)
        assert delays[0] == 0.05
        assert delays[-1] == _BACKOFF.backoff_max_s == 5.0

    def test_choose_excludes_dead_candidates(self):
        system = self._system(n_nodes=3)
        dispatcher = system.question_dispatcher
        # Make node 0 genuinely overloaded (view() reads the live node
        # state for the observer, not its table entry).
        system.monitoring.nodes[0].active_questions = 8
        best = dispatcher.choose(0)
        assert best in (1, 2)
        excluded = dispatcher.choose(0, exclude={best})
        assert excluded != best

    def test_exclude_all_peers_stays_home(self):
        system = self._system(n_nodes=3)
        dispatcher = system.question_dispatcher
        system.monitoring.nodes[0].active_questions = 8
        assert dispatcher.choose(0, exclude={1, 2}) == 0

    def test_migration_to_dead_target_retries_and_survives(self):
        from repro.workload import trec_mix_profiles

        system = self._system(n_nodes=3, monitor_interval_s=0.5)
        # Node 0 is genuinely overloaded so the dispatcher wants to
        # migrate away; every peer is already dead, which the (stale)
        # peer tables cannot know.
        system.monitoring.nodes[0].active_questions = 8
        system.failures.apply(FailureSchedule().kill_at(0.0, 1).kill_at(0.0, 2))
        profile = trec_mix_profiles(1, seed=4)[0]
        report = system.run_workload([profile])
        dispatcher = system.question_dispatcher
        assert dispatcher.migration_failures >= 1
        # The question survived by staying home on node 0.
        assert report.n_completed == 1
        assert report.accounted
