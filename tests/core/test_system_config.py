"""Tests for SystemConfig policy derivation and report aggregation."""

import pytest

from repro.core import (
    DistributedQASystem,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.core.node import NodeConfig
from repro.qa import SyntheticProfileGenerator


def profiles(n, seed=3):
    return SyntheticProfileGenerator(seed=seed).generate_many(n)


class TestEffectivePolicy:
    def test_dns_disables_everything(self):
        policy = SystemConfig(strategy=Strategy.DNS).effective_policy()
        assert not policy.enable_question_dispatch
        assert not policy.enable_pr_dispatch
        assert not policy.enable_ap_dispatch
        assert not policy.enable_partitioning

    def test_inter_enables_only_question_dispatch(self):
        policy = SystemConfig(strategy=Strategy.INTER).effective_policy()
        assert policy.enable_question_dispatch
        assert not policy.enable_pr_dispatch
        assert not policy.enable_ap_dispatch

    def test_dqa_keeps_user_policy(self):
        custom = TaskPolicy(ap_chunk_paragraphs=17)
        policy = SystemConfig(
            strategy=Strategy.DQA, policy=custom
        ).effective_policy()
        assert policy.enable_pr_dispatch
        assert policy.ap_chunk_paragraphs == 17

    def test_strategy_override_preserves_other_knobs(self):
        custom = TaskPolicy(ap_chunk_paragraphs=23)
        policy = SystemConfig(
            strategy=Strategy.DNS, policy=custom
        ).effective_policy()
        assert not policy.enable_partitioning
        assert policy.ap_chunk_paragraphs == 23


class TestNodeOverrides:
    def test_disk_bandwidth_override_changes_pr_time(self):
        prof = profiles(1)[0]

        def response(disk_bw):
            system = DistributedQASystem(
                SystemConfig(
                    n_nodes=1,
                    strategy=Strategy.DNS,
                    node_overrides={0: NodeConfig(disk_bandwidth=disk_bw)},
                )
            )
            return system.run_workload([prof]).results[0].module_times["PR"]

        assert response(50e6) < response(12.5e6)


class TestReportAggregation:
    def test_mean_module_times_and_overhead(self):
        system = DistributedQASystem(SystemConfig(n_nodes=2, strategy=Strategy.DQA))
        report = system.run_workload(profiles(4))
        means = report.mean_module_times()
        assert set(means) == {"QP", "PR", "PS", "PO", "AP"}
        assert all(v >= 0 for v in means.values())
        assert all("paragraph_send" in r.overhead for r in report.completed)

    def test_monitoring_traffic_accounted(self):
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DNS))
        system.run_workload(profiles(4))
        # 4 monitors broadcasting for the workload's duration.
        assert system.network.broadcasts_sent > 4 * 30

