"""Tests for the extension features: heterogeneous clusters,
node-death admission handling, and resubmission."""

import pytest

from repro.core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.core.node import NodeConfig, NodeDown
from repro.qa import SyntheticProfileGenerator, SyntheticProfileParams
from repro.simulation import Environment, FailureSchedule


def complex_profile(seed=3):
    gen = SyntheticProfileGenerator(SyntheticProfileParams.complex(), seed=seed)
    return gen.generate(0)


class TestHeterogeneousClusters:
    def test_node_overrides_applied(self):
        system = DistributedQASystem(
            SystemConfig(
                n_nodes=3,
                node_overrides={1: NodeConfig(cpu_speed=0.5)},
            )
        )
        assert system.nodes[0].cpu.capacity == 1.0
        assert system.nodes[1].cpu.capacity == 0.5
        assert system.nodes[2].cpu.capacity == 1.0

    def test_recv_tolerates_slow_nodes_better_than_isend(self):
        """Pull-based chunking adapts to capacity differences that the
        cost-balanced sender-controlled split cannot see."""
        prof = complex_profile()
        overrides = {1: NodeConfig(cpu_speed=0.4), 2: NodeConfig(cpu_speed=0.4)}

        def ap_time(strategy):
            system = DistributedQASystem(
                SystemConfig(
                    n_nodes=4,
                    strategy=Strategy.DQA,
                    policy=TaskPolicy(ap_strategy=strategy),
                    node_overrides=overrides,
                )
            )
            return system.run_workload([prof]).results[0].module_times["AP"]

        assert ap_time(PartitioningStrategy.RECV) < ap_time(
            PartitioningStrategy.ISEND
        )

    def test_slow_node_pulls_fewer_chunks(self):
        prof = complex_profile()
        system = DistributedQASystem(
            SystemConfig(
                n_nodes=4,
                strategy=Strategy.DQA,
                node_overrides={3: NodeConfig(cpu_speed=0.3)},
                trace=True,
            )
        )
        system.run_workload([prof])
        from collections import Counter

        counts = Counter(
            e.node_id for e in system.spans.instants() if e.name == "ap-part"
        )
        assert counts[3] < max(counts.values())


class TestNodeDeathAdmission:
    def test_queued_waiters_failed_on_death(self):
        env = Environment()
        from repro.core import ClusterNode

        node = ClusterNode(env, 0, NodeConfig(max_concurrent_questions=1))
        first = node.admit_question()
        second = node.admit_question()
        assert first.triggered
        node.fail_admission_waiters()
        env.run()
        assert second.processed
        assert not second.ok
        assert isinstance(second._value, NodeDown)

    def test_queued_question_on_dying_node_marked_failed(self):
        gen = SyntheticProfileGenerator(seed=5)
        profiles = gen.generate_many(8)
        system = DistributedQASystem(
            SystemConfig(
                n_nodes=2,
                strategy=Strategy.DNS,
                node=NodeConfig(max_concurrent_questions=1),
            )
        )
        # Node 1 dies while its queue holds waiting questions.
        system.failures.apply(FailureSchedule().kill_at(10.0, 1))
        report = system.run_workload(profiles)
        assert report.n_questions == 8
        failed = [r for r in report.results if r.failed]
        assert failed  # the queued questions at node 1
        ok = [r for r in report.results if not r.failed]
        assert all(r.response_time > 0 for r in ok)


class TestResubmission:
    def test_resubmit_recovers_lost_questions(self):
        gen = SyntheticProfileGenerator(seed=5)
        profiles = gen.generate_many(8)

        def run(retry_budget):
            system = DistributedQASystem(
                SystemConfig(
                    n_nodes=4,
                    strategy=Strategy.DNS,
                    node=NodeConfig(max_concurrent_questions=1),
                    question_retry_budget=retry_budget,
                )
            )
            system.failures.apply(
                FailureSchedule().kill_at(10.0, 1).recover_at(400.0, 1)
            )
            return system.run_workload(profiles).n_lost

        assert run(0) > 0
        assert run(3) == 0
