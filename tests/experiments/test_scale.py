"""Tests for the scale-out sweep (``repro experiments ext-scale``)."""

import pytest

from repro.experiments import runner, scale
from repro.experiments.scale import run_scale


@pytest.fixture(scope="module")
def summary():
    return run_scale(
        node_counts=(2, 4), strategies=("RECV",), questions_per_node=2, seed=11
    )


class TestCrossCheck:
    def test_crosscheck_covers_every_swept_size(self, summary):
        assert [r["n_nodes"] for r in summary["crosscheck"]] == [2, 4]
        # N=1 anchors the ratio and every cell ran sharded.
        assert [c["n_nodes"] for c in summary["cells"]] == [1, 2, 4]
        assert all(c["monitor_shards"] >= 1 for c in summary["cells"])

    def test_relative_error_consistent(self, summary):
        for row in summary["crosscheck"]:
            expect = abs(
                row["measured_speedup"] - row["analytical_speedup"]
            ) / row["analytical_speedup"]
            assert row["rel_err"] == pytest.approx(expect)
            assert row["analytical_speedup"] > 1.0


def test_registered_section_renders(summary, monkeypatch):
    monkeypatch.setattr(scale, "run_scale", lambda: summary)
    text = runner.run_experiment("ext-scale")
    assert "Eq 23 cross-check" in text
    assert text.count("RECV") == 2
