"""Tests for the collection-selection experiment
(``repro experiments ext-selection``)."""

import pytest

from repro.experiments import runner, selection
from repro.experiments.selection import SelectionConfig, run_selection


@pytest.fixture(scope="module")
def summary():
    # Tiny run: enough to exercise both real-pipeline runs and an
    # off-vs-on simulated pair, quickly.
    return run_selection(
        SelectionConfig(
            n_questions=16,
            n_unique=8,
            node_counts=(4,),
            sim_questions_per_node=1,
        )
    )


class TestStructure:
    def test_predictive_reports_quality_not_identity(self, summary):
        q = summary["quality"]["predictive"]
        assert 0.0 <= q["answer_agreement"] <= 1.0
        assert 0.0 <= q["recall_mean"] <= 1.0
        assert summary["runs"]["predictive"]["postings_scanned_total"] <= (
            summary["runs"]["exhaustive"]["postings_scanned_total"]
        )

    def test_simulated_rows_cover_node_counts(self, summary):
        sim = summary["simulated"]
        assert [r["n_nodes"] for r in sim["rows"]] == [4]
        assert sim["attribution_ok"]  # buckets sum to each question's latency
        assert sim["comms_shrinks"]

    def test_format_mentions_all_modes(self, summary, monkeypatch):
        monkeypatch.setattr(selection, "run_selection", lambda: summary)
        text = runner.run_experiment("ext-selection")
        for token in ("exhaustive", "predictive", "partition-comms"):
            assert token in text
        assert "exact" not in text  # retired with its mode
        assert "q/s" not in text
