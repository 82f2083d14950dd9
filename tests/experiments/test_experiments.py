"""Smoke + correctness tests for the experiment drivers."""

import pytest

from repro.core import PartitioningStrategy
from repro.experiments import EXPERIMENTS, default_context
from repro.experiments.ablations import (
    run_concurrency_sweep,
    run_dispatcher_ablation,
    run_margin_sweep,
    run_threshold_sweep,
)
from repro.experiments.figures import run_fig7_trace, run_fig8, run_fig9
from repro.experiments.intra_question_exp import run_intra_question
from repro.experiments.load_balancing import run_load_balancing
from repro.experiments.partitioning_exp import run_fig10, run_table11
from repro.experiments.report import TextTable, format_series
from repro.experiments.table1_examples import format_table1, run_table1
from repro.experiments.table2_module_analysis import format_table2, run_table2
from repro.experiments.table3_resource_weights import format_table3, run_table3
from repro.experiments.table4_upper_limits import format_table4, run_table4


class TestReport:
    def test_text_table_renders(self):
        t = TextTable("Title", ["a", "b"])
        t.add_row(1, 2.5)
        out = t.render()
        assert "Title" in out
        assert "2.50" in out

    def test_row_arity_checked(self):
        t = TextTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_format_series_aligns_x(self):
        out = format_series(
            "S", {"one": [(1.0, 2.0)], "two": [(1.0, 3.0), (2.0, 4.0)]}
        )
        assert "S" in out
        assert "4.00" in out


class TestTableDrivers:
    def test_table1_examples_mostly_correct(self):
        examples = run_table1(n_examples=5)
        assert len(examples) == 5
        assert sum(e.correct for e in examples) >= 4
        assert "Table 1" in format_table1(examples)

    def test_table2_fractions_match_paper(self):
        rows = run_table2(n_questions=30)
        frac = {r.module: r.fraction for r in rows}
        assert frac["AP"] == pytest.approx(0.697, abs=0.06)
        assert frac["PR"] == pytest.approx(0.265, abs=0.06)
        assert frac["QP"] < 0.03
        assert "Table 2" in format_table2(rows)

    def test_table3_weights_match_paper(self):
        rows = run_table3(n_questions=3)
        by_module = {r.module: r for r in rows}
        assert by_module["QA"].cpu_weight == pytest.approx(0.79, abs=0.06)
        assert by_module["PR"].cpu_weight == pytest.approx(0.20, abs=0.05)
        assert by_module["AP"].cpu_weight == pytest.approx(1.00, abs=0.01)
        assert "Table 3" in format_table3(rows)

    def test_table4_grid_complete(self):
        grid = run_table4()
        assert len(grid) == 16
        out = format_table4(grid)
        assert "match the paper exactly" in out

    def test_load_balancing_small(self):
        cells = run_load_balancing(node_counts=(4, 8, 12), seeds=(11, 23))
        assert len(cells) == 9
        by_key = {(c.n_nodes, c.strategy): c for c in cells}
        assert {s for _n, s in by_key} == {"DNS", "INTER", "DQA"}
        for n in (4, 8, 12):
            dns, dqa = by_key[(n, "DNS")], by_key[(n, "DQA")]
            assert dqa.throughput_qpm > dns.throughput_qpm  # Table 5
            assert dqa.mean_response_s <= dns.mean_response_s * 1.02  # Table 6
            # Table 7: the PR and AP dispatchers are visibly active under DQA.
            assert dqa.migrations_pr > 0 and dqa.migrations_ap > 0

    def test_intra_question_small(self):
        rows = run_intra_question(node_counts=(1, 4), n_questions=3)
        assert rows[0].n_nodes == 1
        assert rows[1].measured_speedup > 1.5
        assert rows[1].analytical_speedup == pytest.approx(3.80, abs=0.2)
        # Table 9: distribution overhead stays a few percent of the response.
        assert sum(rows[1].overhead.values()) < 0.06 * rows[1].response_s

    def test_table11_small(self):
        rows = run_table11(node_counts=(4,), n_questions=3)
        assert rows[0].send < rows[0].recv
        assert rows[0].send < rows[0].isend


class TestFigureDrivers:
    def test_fig7_trace_contains_events(self):
        text = run_fig7_trace(PartitioningStrategy.RECV)
        assert "pr-collection" in text
        assert "ap-part" in text

    def test_fig8_curves(self):
        series = run_fig8(max_n=200, step=100)
        assert set(series) == {"10 Mbps", "100 Mbps", "1 Gbps"}
        # Higher bandwidth -> higher speedup at the same N.
        last = {k: v[-1][1] for k, v in series.items()}
        assert last["1 Gbps"] > last["100 Mbps"] > last["10 Mbps"]
        for (_x, y_slow), (_x2, y_fast) in zip(series["10 Mbps"], series["1 Gbps"]):
            assert y_fast >= y_slow

    def test_fig9_panels(self):
        a, b = run_fig9(max_n=100, step=50)
        assert "1 Gbps" in a and "100 Mbps" in b
        # Panel a: faster network -> higher speedup.
        assert a["1 Gbps"][-1][1] > a["1 Mbps"][-1][1]
        # Panel b: slower disk -> higher speedup (paper's Fig 9(b)).
        s_slow = b["100 Mbps"][-1][1]
        s_fast = b["1 Gbps"][-1][1]
        assert s_slow > s_fast

    def test_fig10_small(self):
        series = run_fig10(chunk_sizes=(10, 80), node_counts=(4,), n_questions=2)
        pts = series["4 processors"]
        assert pts[0][1] > pts[1][1]  # chunk 10 beats chunk 80


class TestAblationDrivers:
    def test_full_dqa_beats_no_dispatchers(self):
        rows = run_dispatcher_ablation(n_nodes=8, seeds=(11,))
        by_label = {r.label: r for r in rows}
        assert (
            by_label["DQA (full)"].throughput_qpm
            > by_label["DNS (no dispatchers)"].throughput_qpm
        )

    def test_concurrency_peaks_in_the_middle(self):
        """Section 4.2: throughput rises from 1 simultaneous question,
        peaks at 2-4, and collapses under memory thrash past that."""
        low, mid, high = (
            r.throughput_qpm
            for r in run_concurrency_sweep(caps=(1, 3, 8), seeds=(11,))
        )
        assert mid > low and mid > high

    def test_threshold_sweep_one_row_per_threshold(self):
        rows = run_threshold_sweep(thresholds=(0.0, 0.668, 2.672), seeds=(11,))
        assert len(rows) == 3

    def test_larger_margin_does_not_hurt_low_load_response(self):
        rows = run_margin_sweep(margins=(0.5, 2.0), n_questions=6)
        responses = [resp for _margin, resp, _thr in rows]
        assert responses[-1] <= responses[0] * 1.05


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "tables5-7",
            "tables8-10", "table11", "fig7", "fig8", "fig9", "fig10",
            "ablation-dispatchers", "ablation-concurrency",
            "ablation-threshold", "ablation-margin",
            "ext-chaos", "ext-heterogeneous", "ext-churn",
            "ext-scale", "ext-event-census",
        }
        assert set(EXPERIMENTS) == expected

    def test_context_memoized(self):
        assert default_context() is default_context()
