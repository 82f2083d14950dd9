"""Tests for workload generation and metrics."""

import numpy as np
import pytest

from repro.workload import (
    high_load_count,
    poisson_arrivals,
    staggered_arrivals,
    summarize_latencies,
    trec_mix_profiles,
)


class TestArrivals:
    def test_high_load_count_is_8n(self):
        assert high_load_count(4) == 32
        assert high_load_count(12) == 96

    def test_staggered_non_decreasing_and_bounded(self):
        times = staggered_arrivals(50, stagger_s=2.0, seed=1)
        assert times[0] == 0.0
        gaps = np.diff(times)
        assert (gaps >= 0).all()
        assert (gaps <= 2.0).all()

    def test_staggered_deterministic(self):
        assert staggered_arrivals(10, seed=3) == staggered_arrivals(10, seed=3)

    def test_staggered_empty(self):
        assert staggered_arrivals(0) == []

    def test_staggered_negative_rejected(self):
        with pytest.raises(ValueError):
            staggered_arrivals(-1)
        with pytest.raises(ValueError, match="stagger_s must be non-negative"):
            staggered_arrivals(4, stagger_s=-1.0)

    def test_poisson_positive_increasing(self):
        times = poisson_arrivals(20, rate_per_s=2.0, seed=1)
        assert len(times) == 20
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_poisson_rate_validated(self):
        with pytest.raises(ValueError):
            poisson_arrivals(5, rate_per_s=0.0)


class TestTrecMix:
    def test_bimodal_population(self):
        profiles = trec_mix_profiles(100, seed=1)
        from repro.qa import CostModel

        model = CostModel.default()
        times = sorted(p.sequential_seconds(model) for p in profiles)
        # Mixture of ~48 s and ~94 s questions: wide spread, overall mean
        # around 70 s.
        mean = np.mean(times)
        assert 55 < mean < 90
        assert times[10] < 50
        assert times[-10] > 90

    def test_qids_sequential(self):
        profiles = trec_mix_profiles(10, seed=2)
        assert [p.qid for p in profiles] == list(range(10))

    def test_deterministic(self):
        a = trec_mix_profiles(10, seed=5)
        b = trec_mix_profiles(10, seed=5)
        assert [p.ap_cpu_s for p in a] == [p.ap_cpu_s for p in b]


class TestMetrics:
    def _report(self, times):
        from repro.core.qa_task import TaskResult
        from repro.core.system import WorkloadReport

        results = []
        for i, t in enumerate(times):
            r = TaskResult(qid=i, arrival_time=0.0)
            r.start_time = 0.0
            r.end_time = t
            results.append(r)
        return WorkloadReport(
            results=results, makespan_s=max(times), migrations_qa=0,
            migrations_pr=0, migrations_ap=0,
        )

    def test_summary_statistics(self):
        s = summarize_latencies(self._report([1.0, 2.0, 3.0, 4.0]))
        assert s.n == 4
        assert s.mean_s == pytest.approx(2.5)
        assert s.median_s == pytest.approx(2.5)
        assert s.min_s == 1.0
        assert s.max_s == 4.0

    def test_summary_empty(self):
        from repro.core.system import WorkloadReport

        s = summarize_latencies(WorkloadReport([], 0.0, 0, 0, 0))
        assert s.n == 0

    def test_throughput(self):
        report = self._report([30.0, 60.0])
        assert report.throughput_qpm == pytest.approx(2.0)
