"""Focused tests for DistributedQATask internals: overhead accounting,
memory discipline, migration counting and policy flags."""

import pytest

from repro.core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.qa import CostModel, SyntheticProfileGenerator, SyntheticProfileParams


def profile(seed=3, complex_=True):
    params = SyntheticProfileParams.complex() if complex_ else None
    return SyntheticProfileGenerator(params, seed=seed).generate(0)


def run_one(n_nodes=4, policy=None, strategy=Strategy.DQA, prof=None, trace=False):
    system = DistributedQASystem(
        SystemConfig(
            n_nodes=n_nodes,
            strategy=strategy,
            policy=policy or TaskPolicy(),
            trace=trace,
        )
    )
    report = system.run_workload([prof or profile()])
    return system, report.results[0]


class TestOverheadAccounting:
    def test_overhead_categories_present(self):
        _, r = run_one()
        assert set(r.overhead) == {
            "keyword_send", "paragraph_recv", "paragraph_send",
            "answer_recv", "answer_sort",
        }

    def test_paragraph_transfer_dominates(self):
        """Like the paper's Table 9: paragraph movement is the biggest
        overhead component."""
        _, r = run_one(n_nodes=8)
        para = r.overhead["paragraph_recv"] + r.overhead["paragraph_send"]
        other = r.overhead["keyword_send"] + r.overhead["answer_recv"]
        assert para > other

    def test_single_node_has_no_transfer_overhead(self):
        _, r = run_one(n_nodes=1)
        assert r.overhead["keyword_send"] == 0.0
        assert r.overhead["paragraph_send"] == 0.0
        assert r.overhead["paragraph_recv"] == 0.0

    def test_response_time_exceeds_module_sum_by_overhead_scale(self):
        _, r = run_one(n_nodes=4)
        module_sum = sum(r.module_times.values())
        assert r.response_time >= module_sum * 0.9


class TestMemoryDiscipline:
    def test_all_memory_released_after_workload(self):
        system, _ = run_one(n_nodes=4)
        for node in system.nodes.values():
            assert node.memory.allocated == pytest.approx(
                node.config.baseline_memory_bytes
            )

    def test_memory_released_even_with_failures(self):
        from repro.simulation import FailureSchedule

        prof = profile()
        system = DistributedQASystem(
            SystemConfig(n_nodes=4, strategy=Strategy.DQA)
        )
        system.failures.apply(
            FailureSchedule().kill_at(20.0, 2).recover_at(100.0, 2)
        )
        system.run_workload([prof])
        for nid, node in system.nodes.items():
            assert node.memory.allocated == pytest.approx(
                node.config.baseline_memory_bytes
            ), f"node {nid} leaked memory"

    def test_question_slots_released(self):
        system, _ = run_one(n_nodes=4)
        for node in system.nodes.values():
            assert node.running_questions == 0
            assert node.active_questions == 0
            assert node.waiting_questions == 0


class TestPolicyFlags:
    def test_partitioning_disabled_keeps_width_one(self):
        policy = TaskPolicy(enable_partitioning=False)
        _, r = run_one(policy=policy)
        assert r.pr_partition_width == 1
        assert r.ap_partition_width == 1

    def test_pr_dispatch_disabled_runs_pr_on_host(self):
        policy = TaskPolicy(enable_pr_dispatch=False)
        _, r = run_one(policy=policy)
        assert not r.migrated_pr
        assert r.pr_partition_width == 1

    def test_ap_dispatch_disabled_runs_ap_on_host(self):
        policy = TaskPolicy(enable_ap_dispatch=False)
        _, r = run_one(policy=policy)
        assert not r.migrated_ap
        assert r.ap_partition_width == 1

    def test_widths_bounded_by_cluster(self):
        _, r = run_one(n_nodes=4)
        assert 1 <= r.pr_partition_width <= 4
        assert 1 <= r.ap_partition_width <= 4

    def test_pr_width_bounded_by_collections(self):
        prof = profile()
        _, r = run_one(n_nodes=12, prof=prof)
        assert r.pr_partition_width <= len(prof.collections)


class TestScaleInvariance:
    def test_times_scale_with_cpu_work(self):
        """Metamorphic: doubling every CPU demand roughly doubles the
        CPU-bound module times on an uncontended single node."""
        from array import array
        from dataclasses import replace

        prof = profile()
        doubled = replace(
            prof,
            qp_cpu_s=prof.qp_cpu_s * 2,
            po_cpu_s=prof.po_cpu_s * 2,
            paragraph_ap_cpu_s=array(
                "d", (2 * c for c in prof.paragraph_ap_cpu_s)
            ),
        )
        _, base = run_one(n_nodes=1, prof=prof)
        _, double = run_one(n_nodes=1, prof=doubled)
        assert double.module_times["AP"] == pytest.approx(
            2 * base.module_times["AP"], rel=0.02
        )
        assert double.module_times["QP"] == pytest.approx(
            2 * base.module_times["QP"], rel=0.02
        )
        # PR unchanged (disk-bound part untouched).
        assert double.module_times["PR"] == pytest.approx(
            base.module_times["PR"], rel=0.02
        )


class TestTraceConsistency:
    def test_trace_chunk_count_matches_partitioning(self):
        prof = profile()
        policy = TaskPolicy(
            ap_strategy=PartitioningStrategy.RECV, ap_chunk_paragraphs=40
        )
        system, r = run_one(n_nodes=4, policy=policy, prof=prof, trace=True)
        n_chunks = sum(e.name == "ap-part" for e in system.spans.instants())
        expected = max(1, prof.n_accepted // 40)
        assert n_chunks == expected

    def test_pr_collections_all_traced(self):
        prof = profile()
        system, _ = run_one(n_nodes=4, prof=prof, trace=True)
        traced = sum(e.name == "pr-collection" for e in system.spans.instants())
        assert traced == len(prof.collections)


class TestParagraphColumns:
    @pytest.mark.parametrize(
        "items",
        [[5], [3, 4, 5], [0, 12, 24], [7, 3], [0, 2, 1, 3], [2, 3, 0, 1]],
    )
    def test_take_reads_entries_in_item_order(self, items):
        """An AP chunk adds its paragraphs' entries in the order it holds
        them, whether they form one ascending run or not (a recovery
        round may concatenate leftovers out of order)."""
        from array import array

        from repro.core.qa_task import _take

        column = array("d", (0.1 * (i + 1) for i in range(30)))
        taken = _take(items)(column)
        assert list(taken) == [column[i] for i in items]
        assert sum(taken) == sum(column[i] for i in items)
