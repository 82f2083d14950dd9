"""Integration tests for the chaos campaign and graceful degradation.

The headline guarantees under test:

* **question conservation** — every admitted question is either
  completed, accounted as lost, or still in flight, in every campaign
  cell, at any fault rate;
* **determinism** — same RNG seed + same chaos schedule produces an
  identical trace event sequence and an identical workload report;
* **graceful degradation** — a question whose host dies is re-admitted
  at the front end (up to the retry budget) instead of silently
  vanishing, and its recovery latency is recorded.
"""

import pytest

from repro.core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
)
from repro.experiments.chaos_campaign import (
    detection_latencies,
    format_campaign,
    run_campaign,
    run_campaign_cell,
)
from repro.simulation import FailureSchedule
from repro.workload import failure_accounting, trec_mix_profiles


class TestCampaignAccounting:
    def test_every_cell_balances(self):
        cells = run_campaign(
            n_nodes=4,
            n_questions=6,
            strategies=[PartitioningStrategy.SEND, PartitioningStrategy.RECV],
            fault_rates=(0.0, 0.01),
            seed=7,
        )
        assert len(cells) == 4
        for cell in cells:
            acc = cell.accounting
            assert acc.balanced
            assert acc.admitted == 6
            assert acc.completed + acc.lost + acc.in_flight == acc.admitted

    def test_zero_fault_rate_loses_nothing(self):
        cells = run_campaign(
            n_nodes=4,
            n_questions=6,
            strategies=[PartitioningStrategy.ISEND],
            fault_rates=(0.0,),
            seed=7,
        )
        (cell,) = cells
        assert cell.injected_kills == 0
        assert cell.accounting.lost == 0
        assert cell.accounting.retries == 0
        assert cell.accounting.completed == 6

    def test_format_campaign_renders_all_cells(self):
        cells = run_campaign(
            n_nodes=4,
            n_questions=4,
            strategies=[PartitioningStrategy.SEND],
            fault_rates=(0.0, 0.01),
            seed=3,
        )
        text = format_campaign(cells)
        assert text.count("SEND") == len(cells)
        assert "fault rate" in text


class TestDeterminism:
    def test_same_seed_identical_cell_and_trace(self):
        runs = [
            run_campaign_cell(
                PartitioningStrategy.RECV,
                0.02,
                n_nodes=4,
                n_questions=8,
                seed=5,
                trace=True,
            )
            for _ in range(2)
        ]
        (cell_a, sys_a), (cell_b, sys_b) = runs
        assert cell_a == cell_b
        assert sys_a.failures.log == sys_b.failures.log
        assert sys_a.monitoring.membership_log == sys_b.monitoring.membership_log
        assert sys_a.spans.instants()  # the traced run actually traced
        assert sys_a.spans.instants() == sys_b.spans.instants()

    def test_same_seed_identical_report_fields(self):
        reports = []
        for _ in range(2):
            _, system = run_campaign_cell(
                PartitioningStrategy.SEND,
                0.015,
                n_nodes=4,
                n_questions=6,
                seed=9,
            )
            r = system.last_report
            reports.append(
                (
                    r.makespan_s,
                    r.n_admitted,
                    r.n_completed,
                    r.n_lost,
                    r.n_retries,
                    tuple(r.recovery_latencies_s),
                    tuple(sorted(p.response_time for p in r.results)),
                )
            )
        assert reports[0] == reports[1]

    def test_different_seed_differs(self):
        cell_a, _ = run_campaign_cell(
            PartitioningStrategy.SEND, 0.02, n_nodes=4, n_questions=6, seed=1
        )
        cell_b, _ = run_campaign_cell(
            PartitioningStrategy.SEND, 0.02, n_nodes=4, n_questions=6, seed=2
        )
        assert cell_a != cell_b


class TestGracefulDegradation:
    def _run_with_host_death(self, retry_budget):
        # Two nodes, DNS placement (no migration): the question lands on
        # node 0 and node 0 dies mid-question.
        system = DistributedQASystem(
            SystemConfig(
                n_nodes=2,
                strategy=Strategy.DNS,
                seed=3,
                question_retry_budget=retry_budget,
            )
        )
        system.failures.apply(FailureSchedule().kill_at(2.0, 0))
        profiles = trec_mix_profiles(1, seed=3)
        report = system.run_workload(profiles, [0.0])
        return report

    def test_host_death_readmits_question(self):
        report = self._run_with_host_death(retry_budget=2)
        assert report.n_retries >= 1
        assert report.n_lost == 0
        assert report.n_completed == 1
        assert report.accounted
        assert report.recovery_latencies_s
        assert report.mean_recovery_latency_s > 0.0

    def test_zero_budget_accounts_loss(self):
        report = self._run_with_host_death(retry_budget=0)
        assert report.n_retries == 0
        assert report.n_lost == 1
        assert report.n_completed == 0
        assert report.accounted
        acc = failure_accounting(report)
        assert acc.balanced
        assert acc.loss_rate == pytest.approx(1.0)

    def test_unbalanced_campaign_raises(self, monkeypatch):
        from repro.experiments import chaos_campaign as cc

        real = cc.run_campaign_cell

        def sabotage(*args, **kwargs):
            cell, system = real(*args, **kwargs)
            bad = cc.FailureAccounting(
                admitted=cell.accounting.admitted + 1,
                completed=cell.accounting.completed,
                lost=cell.accounting.lost,
                in_flight=cell.accounting.in_flight,
                retries=cell.accounting.retries,
                mean_recovery_latency_s=0.0,
            )
            from dataclasses import replace

            return replace(cell, accounting=bad), system

        monkeypatch.setattr(cc, "run_campaign_cell", sabotage)
        with pytest.raises(RuntimeError, match="unaccounted"):
            cc.run_campaign(
                n_nodes=4,
                n_questions=2,
                strategies=[PartitioningStrategy.SEND],
                fault_rates=(0.0,),
                seed=1,
            )


class TestDetectionLatencies:
    def test_matches_kill_to_following_leave(self):
        injector = [(10.0, 1, False), (40.0, 1, True), (60.0, 2, False)]
        membership = [(13.5, 1, False), (41.0, 1, True), (63.0, 2, False)]
        assert detection_latencies(injector, membership) == [3.5, 3.0]

    def test_flap_without_leave_contributes_nothing(self):
        injector = [(10.0, 1, False), (10.5, 1, True)]
        assert detection_latencies(injector, []) == []

    def test_leave_before_kill_not_matched(self):
        injector = [(10.0, 1, False)]
        membership = [(5.0, 1, False)]
        assert detection_latencies(injector, membership) == []


class TestPartitionAbortExport:
    def test_importable_from_core(self):
        # Regression: PartitionAbort was in partitioning.__all__ but
        # missing from repro.core's public surface.
        import repro.core

        assert "PartitionAbort" in repro.core.__all__
        from repro.core import PartitionAbort
        from repro.core.partitioning import PartitionAbort as inner

        assert PartitionAbort is inner
