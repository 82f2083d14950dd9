"""Tests for the extension experiment drivers (small configurations)."""

import pytest

pytestmark = pytest.mark.slow

from repro.experiments.robustness_exp import (
    format_churn,
    format_heterogeneous,
    run_churn,
    run_heterogeneous,
)


class TestHeterogeneous:
    def test_recv_degrades_least_of_sender_strategies(self):
        rows = run_heterogeneous(n_questions=3)
        by = {r.strategy: r for r in rows}
        assert by["RECV"].degradation < by["ISEND"].degradation
        for r in rows:
            assert r.degradation >= 0.95  # slower nodes never speed things up

    def test_format(self):
        rows = run_heterogeneous(n_questions=2)
        assert "heterogeneous" in format_heterogeneous(rows).lower()


class TestChurn:
    def test_retry_completes_everything(self):
        result = run_churn(n_nodes=8)
        assert result.completed_with_retry == result.n_questions
        assert result.completed_no_retry <= result.completed_with_retry
        assert result.throughput_qpm > 0.8 * result.baseline_throughput_qpm
        assert "churn" in format_churn(result).lower()

