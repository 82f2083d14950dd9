"""Tests for the Eq 23 section (``repro experiments ext-scale``)."""

import pytest

from repro.experiments import runner, scale
from repro.experiments.scale import _middle_half_rate, format_scale, run_scale
from repro.model import ModelParameters, system_speedup

SEEDS = (11, 23)


@pytest.fixture(scope="module")
def summary():
    return run_scale(node_counts=(1, 2, 4), seeds=SEEDS)


class TestCrossCheck:
    def test_crosscheck_covers_every_swept_size(self, summary):
        assert [r["n_nodes"] for r in summary["rows"]] == [1, 2, 4]
        assert [(c["n_nodes"], c["seed"]) for c in summary["cells"]] == [
            (n, s) for n in (1, 2, 4) for s in SEEDS
        ]

    def test_ratio_is_measured_speedup_over_eq23(self, summary):
        for row in summary["rows"]:
            assert row["ratios"] == pytest.approx(
                [x / row["analytical_speedup"] for x in row["speedups"]]
            )

    def test_anchor_speedup_is_exactly_one(self, summary):
        assert summary["rows"][0]["speedups"] == [1.0] * len(SEEDS)

    def test_ratios_below_eq23_in_the_model_validation_band(self, summary):
        for row in summary["rows"][1:]:
            assert all(0.5 < r <= 1.05 for r in row["ratios"]), row

    def test_parallel_render_is_byte_identical(self, summary):
        parallel = run_scale(node_counts=(1, 2, 4), seeds=SEEDS, jobs=2)
        assert format_scale(parallel) == format_scale(summary)


def test_no_dispatcher_pile_up_at_64_nodes():
    """Dispatchers on 64 nodes share one load table, so migrated questions
    spread instead of piling onto the few nodes idle at the last round."""
    one, cell = scale._scale_cell((1, 11)), scale._scale_cell((64, 11))
    assert cell.busiest_over_mean <= 2.0
    eq23 = system_speedup(ModelParameters(), 64)
    assert cell.rate_qpm / one.rate_qpm >= 0.65 * eq23


class TestMiddleHalfRate:
    def test_known_answer(self):
        # k = 8: the window runs from the 2nd (t = 0) to the 6th (t = 16)
        # completion, 4 completions in 16 s; the tails do not count.
        times = [100.0, 0.0, 0.0, 0.0, 10.0, 12.0, 14.0, 16.0]
        assert _middle_half_rate(times) == pytest.approx(15.0)

    def test_needs_four_completions(self):
        with pytest.raises(ValueError, match="completions"):
            _middle_half_rate([0.0, 1.0, 2.0])

    def test_zero_width_window_rejected(self):
        with pytest.raises(ValueError, match="zero width"):
            _middle_half_rate([0.0, 5.0, 5.0, 5.0, 5.0, 9.0])


def test_registered_section_renders(summary, monkeypatch):
    monkeypatch.setattr(scale, "run_scale", lambda: summary)
    text = runner.run_experiment("ext-scale")
    assert "Eq 23" in text
    assert "seeds 11, 23" in text
    assert len(text.splitlines()) == 4 + 3  # title, rule, header, sep + rows
