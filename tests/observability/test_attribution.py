"""Attribution invariants over real traced workloads.

The load-bearing guarantees: every question's span tree folds into
categories that sum to its end-to-end latency (no overhead is double
counted or lost), and the distributed-system events the paper models —
migrations, partition retries — show up as spans where they happen.
"""

import pytest

from repro.core import (
    DistributedQASystem,
    RetryPolicy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.observability import (
    ATTRIBUTION_CATEGORIES,
    SpanCategory,
    SpanStream,
    attribute_question,
    attribute_workload,
    format_attribution,
)
from repro.observability.names import PARTITION_RETRY_ROUNDS
from repro.workload import staggered_arrivals, trec_mix_profiles

SUM_TOL = 1e-6


@pytest.fixture(scope="module")
def traced_run():
    """One traced DQA workload shared by the invariant tests."""
    system = DistributedQASystem(
        SystemConfig(n_nodes=4, strategy=Strategy.DQA, trace=True, seed=3)
    )
    n = 8
    profiles = trec_mix_profiles(n, seed=3)
    report = system.run_workload(profiles, staggered_arrivals(n, 2.0, seed=3))
    return system, report


class TestQuestionInvariants:
    def test_every_question_has_one_root(self, traced_run):
        system, report = traced_run
        for r in report.results:
            assert len(system.spans.roots(r.qid)) == 1

    def test_categories_sum_to_root_duration(self, traced_run):
        system, _ = traced_run
        for qid in system.spans.question_ids():
            for root in system.spans.roots(qid):
                qa = attribute_question(system.spans, root)
                assert qa.total_attributed_s == pytest.approx(
                    root.duration, abs=SUM_TOL
                )
                assert set(qa.categories) == set(ATTRIBUTION_CATEGORIES)
                assert all(v >= -SUM_TOL for v in qa.categories.values())

    def test_root_duration_matches_sojourn_time(self, traced_run):
        system, report = traced_run
        for r in report.results:
            (root,) = system.spans.roots(r.qid)
            assert root.duration == pytest.approx(r.sojourn_time, abs=SUM_TOL)

    def test_compute_dominates_an_uncontended_run(self, traced_run):
        system, _ = traced_run
        (root,) = system.spans.roots(system.spans.question_ids()[0])
        qa = attribute_question(system.spans, root)
        assert qa.categories["compute"] > 0.5 * qa.wall_s


class TestWorkloadReport:
    def test_report_invariants_and_formatting(self, traced_run):
        system, report = traced_run
        ar = attribute_workload(
            system.spans, system.metrics, report, system.config
        )
        assert ar.n_questions == report.n_questions
        assert ar.max_sum_error() <= SUM_TOL
        # Per-category totals equal the per-question sums, except that the
        # aggregate pass carves monitoring contention out of "other".
        for cat in ATTRIBUTION_CATEGORIES:
            if cat in ("monitoring", "other"):
                continue
            assert ar.categories[cat] == pytest.approx(
                sum(q.categories[cat] for q in ar.questions), abs=SUM_TOL
            )
        # The carve preserves the grand total: categories still sum to the
        # total question wall time.
        assert sum(ar.categories.values()) == pytest.approx(
            ar.total_wall_s, abs=SUM_TOL
        )
        assert ar.categories["monitoring"] >= 0.0
        text = format_attribution(ar)
        assert "compute" in text and "monitoring" in text
        d = ar.to_dict()
        assert d["n_questions"] == report.n_questions

    def test_model_comparison_rows_present(self, traced_run):
        system, report = traced_run
        ar = attribute_workload(
            system.spans, system.metrics, report, system.config
        )
        for row in ("monitoring", "dispatch", "migration+comms"):
            assert row in ar.model_comparison
            assert ar.model_comparison[row]["measured_s"] >= 0.0


class TestMigrationSpans:
    def test_skewed_inter_run_produces_migration_spans(self):
        # The TREC mix's uneven question sizes skew the round-robin load;
        # the INTER dispatcher migrates questions away (scheduling point 1).
        system = DistributedQASystem(
            SystemConfig(
                n_nodes=4,
                strategy=Strategy.INTER,
                trace=True,
                seed=5,
            )
        )
        n = 8
        report = system.run_workload(
            trec_mix_profiles(n, seed=5), staggered_arrivals(n, 1.0, seed=5)
        )
        assert report.migrations_qa > 0
        migrate = [
            s for s in system.spans.intervals() if s.name == "migrate:qa"
        ]
        assert migrate
        assert all(s.cat == SpanCategory.MIGRATION for s in migrate)
        succeeded = [s for s in migrate if not s.attrs.get("failed")]
        assert len(succeeded) >= report.migrations_qa
        # Migration time lands in the migration bucket of those questions.
        migrated_qids = {s.qid for s in succeeded}
        for qid in migrated_qids:
            (root,) = system.spans.roots(qid)
            qa = attribute_question(system.spans, root)
            assert qa.categories["migration"] > 0.0


class TestRetrySpans:
    def test_worker_failure_records_retry_round_spans(self):
        from repro.core import WorkerFailed, run_sender_controlled
        from repro.observability import MetricsRegistry
        from repro.simulation import Environment

        env = Environment()
        spans = SpanStream()
        metrics = MetricsRegistry()
        processed: dict[int, list] = {0: [], 1: []}

        def executor(nid, items):
            for i, item in enumerate(items):
                if nid == 1 and len(processed[1]) >= 2:
                    raise WorkerFailed(nid, items[i:])
                yield env.timeout(0.1)
                processed[nid].append(item)

        parent = spans.begin("stage:PR", SpanCategory.PARTITION, 9, 0, 0.0)

        def main():
            yield from run_sender_controlled(
                env, [1.0] * 12, [(0, 0.5), (1, 0.5)], executor,
                interleaved=False,
                policy=RetryPolicy(max_rounds=4, backoff_base_s=0.5),
                spans=spans, span_parent=parent, qid=9, metrics=metrics,
            )

        env.run(until=env.process(main()))
        retries = [s for s in spans.intervals() if s.name == "retry:round"]
        assert retries
        assert all(s.cat == SpanCategory.RETRY for s in retries)
        assert all(s.parent_id == parent.sid for s in retries)
        assert all(s.duration > 0 for s in retries)  # the backoff wait
        assert metrics.value(PARTITION_RETRY_ROUNDS) == len(retries)

    def test_receiver_loop_records_retry_rounds_too(self):
        from repro.core import WorkerFailed, run_receiver_controlled
        from repro.observability import MetricsRegistry
        from repro.simulation import Environment

        env = Environment()
        spans = SpanStream()
        metrics = MetricsRegistry()
        done: dict[int, int] = {0: 0, 1: 0}

        def executor(nid, items):
            if nid == 1 and done[1] >= 1:
                raise WorkerFailed(nid, items)
            yield env.timeout(0.1)
            done[nid] += len(items)

        def main():
            yield from run_receiver_controlled(
                env, [1.0] * 8, [0, 1], executor, chunk_size=1,
                policy=RetryPolicy(max_rounds=4, backoff_base_s=0.5),
                spans=spans, qid=9, metrics=metrics,
            )

        env.run(until=env.process(main()))
        assert metrics.value(PARTITION_RETRY_ROUNDS) == len(
            [s for s in spans.intervals() if s.name == "retry:round"]
        )
