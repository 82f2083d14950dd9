"""Integration tests for the distributed Q/A system."""

import pytest

from repro.core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.qa import SyntheticProfileGenerator, SyntheticProfileParams
from repro.simulation import FailureSchedule
from repro.workload import staggered_arrivals


def profiles(n, seed=3, complex_=False):
    params = SyntheticProfileParams.complex() if complex_ else None
    return SyntheticProfileGenerator(params, seed=seed).generate_many(n)


class TestSingleQuestion:
    def test_single_node_runs_sequentially(self):
        from repro.qa import CostModel

        system = DistributedQASystem(SystemConfig(n_nodes=1, strategy=Strategy.DNS))
        prof = profiles(1)[0]
        report = system.run_workload([prof])
        r = report.results[0]
        expected = prof.sequential_seconds(CostModel.default())
        assert r.response_time == pytest.approx(expected, rel=0.05)
        assert not (r.migrated_qa or r.migrated_pr or r.migrated_ap)

    def test_partitioning_reduces_response_time(self):
        prof = profiles(1, complex_=True)[0]
        t1 = DistributedQASystem(
            SystemConfig(n_nodes=1, strategy=Strategy.DQA)
        ).run_workload([prof]).results[0].response_time
        t8 = DistributedQASystem(
            SystemConfig(n_nodes=8, strategy=Strategy.DQA)
        ).run_workload([prof]).results[0].response_time
        assert t8 < t1 / 2.5

    def test_module_times_recorded(self):
        prof = profiles(1, complex_=True)[0]
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DQA))
        r = system.run_workload([prof]).results[0]
        assert all(r.module_times[k] > 0 for k in ("QP", "PR", "PS", "AP"))

    def test_overhead_small_fraction_of_response(self):
        """The paper: distribution overhead < 3 % of response time."""
        prof = profiles(1, complex_=True)[0]
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DQA))
        r = system.run_workload([prof]).results[0]
        assert r.total_overhead < 0.05 * r.response_time

    def test_dns_never_migrates_or_partitions(self):
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DNS))
        report = system.run_workload(profiles(4))
        assert report.migrations_qa == 0
        assert report.migrations_pr == 0
        assert report.migrations_ap == 0
        assert all(r.ap_partition_width == 1 for r in report.results)

    def test_inter_only_question_dispatch(self):
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.INTER))
        report = system.run_workload(profiles(8))
        assert report.migrations_pr == 0
        assert report.migrations_ap == 0

    def test_trace_events_collected_when_enabled(self):
        system = DistributedQASystem(
            SystemConfig(n_nodes=4, strategy=Strategy.DQA, trace=True)
        )
        system.run_workload(profiles(1, complex_=True))
        kinds = {e.name for e in system.spans.instants()}
        assert "pr-collection" in kinds
        assert "ap-part" in kinds
        assert "done" in kinds

    def test_trace_disabled_by_default(self):
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DQA))
        system.run_workload(profiles(1))
        assert len(system.spans) == 0


class TestWorkloads:
    def test_all_questions_complete(self):
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DQA))
        profs = profiles(16)
        report = system.run_workload(profs, staggered_arrivals(16, 2.0))
        assert report.n_questions == 16
        assert sorted(r.qid for r in report.results) == list(range(16))

    def test_round_robin_entry_assignment(self):
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DNS))
        report = system.run_workload(profiles(8))
        entries = [r.entry_node for r in report.results]
        assert entries == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_throughput_and_latency_positive(self):
        system = DistributedQASystem(SystemConfig(n_nodes=2, strategy=Strategy.DNS))
        report = system.run_workload(profiles(4))
        assert report.throughput_qpm > 0
        assert report.mean_response_s > 0
        assert report.mean_sojourn_s >= report.mean_response_s

    def test_empty_workload(self):
        system = DistributedQASystem(SystemConfig(n_nodes=2))
        report = system.run_workload([])
        assert report.n_questions == 0
        assert report.throughput_qpm == 0.0

    def test_arrival_length_mismatch_rejected(self):
        system = DistributedQASystem(SystemConfig(n_nodes=2))
        with pytest.raises(ValueError):
            system.run_workload(profiles(2), [0.0])

    def test_determinism_across_runs(self):
        def run():
            system = DistributedQASystem(
                SystemConfig(n_nodes=4, strategy=Strategy.DQA, seed=5)
            )
            profs = profiles(8, seed=5)
            rep = system.run_workload(profs, staggered_arrivals(8, 2.0, seed=5))
            return [round(r.response_time, 9) for r in rep.results]

        assert run() == run()


class TestFailureRecovery:
    def test_worker_failure_during_partitioned_ap(self):
        """Killing a worker mid-run must not lose the question."""
        prof = profiles(1, complex_=True)[0]
        system = DistributedQASystem(
            SystemConfig(
                n_nodes=4,
                strategy=Strategy.DQA,
                policy=TaskPolicy(ap_strategy=PartitioningStrategy.RECV),
            )
        )
        # Kill node 3 shortly after AP is likely to have started.
        system.failures.apply(FailureSchedule().kill_at(16.0, 3))
        report = system.run_workload([prof])
        assert report.n_questions == 1
        r = report.results[0]
        assert r.response_time > 0

    def test_send_strategy_failure_recovery(self):
        prof = profiles(1, complex_=True)[0]
        system = DistributedQASystem(
            SystemConfig(
                n_nodes=4,
                strategy=Strategy.DQA,
                policy=TaskPolicy(ap_strategy=PartitioningStrategy.SEND),
            )
        )
        system.failures.apply(FailureSchedule().kill_at(16.0, 2))
        report = system.run_workload([prof])
        assert report.n_questions == 1

    def test_host_failure_loses_only_hosted_tasks(self):
        """Host death marks its tasks failed; others complete normally."""
        system = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DQA))
        system.failures.apply(FailureSchedule().kill_at(30.0, 1).recover_at(500.0, 1))
        profs = profiles(6, complex_=True)
        done = [
            system.submit(prof, entry_node=i % 4)
            for i, prof in enumerate(profs)
        ]
        results = system.env.run(until=system.env.all_of(done))
        outcomes = list(results.values())
        assert len(outcomes) == 6
        succeeded = [r for r in outcomes if not r.failed]
        # At least the questions not hosted on node 1 must succeed.
        assert len(succeeded) >= 4
        assert all(r.response_time > 0 for r in succeeded)
