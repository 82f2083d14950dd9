"""Tests for load functions and under-load conditions (Eq 1-3, 7-8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core import (
    AP_WEIGHTS,
    PR_WEIGHTS,
    QA_WEIGHTS,
    ResourceWeights,
    load_function,
    single_task_load,
)


def load(weights, cpu=0.0, disk=0.0, n_waiting=0):
    return load_function(weights, cpu, disk, n_waiting)


def is_underloaded(weights, cpu=0.0, disk=0.0, margin=1.0):
    """Eq 7/8, the meta-scheduler's step-1 test."""
    return load(weights, cpu, disk) < margin * single_task_load(weights)


class TestWeights:
    def test_paper_values(self):
        assert (QA_WEIGHTS.cpu, QA_WEIGHTS.disk) == (0.79, 0.21)
        assert (PR_WEIGHTS.cpu, PR_WEIGHTS.disk) == (0.20, 0.80)
        assert (AP_WEIGHTS.cpu, AP_WEIGHTS.disk) == (1.00, 0.00)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ResourceWeights(0.5, 0.4)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ResourceWeights(-0.1, 1.1)


class TestLoadFunction:
    def test_eq1_weighted_combination(self):
        assert load(QA_WEIGHTS, cpu=1.0, disk=0.5) == pytest.approx(
            0.79 * 1.0 + 0.21 * 0.5
        )

    def test_ap_ignores_disk(self):
        assert load(AP_WEIGHTS, cpu=0.3, disk=5.0) == pytest.approx(0.3)

    def test_waiting_questions_add_average_load(self):
        delta = load(QA_WEIGHTS, n_waiting=2) - load(QA_WEIGHTS)
        assert delta == pytest.approx(2 * (0.79 * 0.79 + 0.21 * 0.21))

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50),
                st.floats(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_columns_equal_rows_bit_for_bit(self, rows):
        """One expression serves a table column and a single row: every
        element of the column is the row's own load, to the last bit."""
        cpu, disk, waiting = (np.array(c, dtype=float) for c in zip(*rows))
        for weights in (QA_WEIGHTS, PR_WEIGHTS, AP_WEIGHTS):
            column = load_function(weights, cpu, disk, waiting)
            assert column.tolist() == [load_function(weights, *row) for row in rows]

    @given(
        cpu=st.floats(min_value=0, max_value=10),
        disk=st.floats(min_value=0, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_both_resources(self, cpu, disk):
        base = load(PR_WEIGHTS, cpu=cpu, disk=disk)
        more_cpu = load(PR_WEIGHTS, cpu=cpu + 1, disk=disk)
        more_disk = load(PR_WEIGHTS, cpu=cpu, disk=disk + 1)
        assert more_cpu >= base
        assert more_disk > base


class TestSingleTaskLoad:
    def test_closed_form(self):
        assert single_task_load(PR_WEIGHTS) == pytest.approx(0.2**2 + 0.8**2)
        assert single_task_load(AP_WEIGHTS) == pytest.approx(1.0)
        assert single_task_load(QA_WEIGHTS) == pytest.approx(0.6682)


class TestUnderload:
    def test_idle_node_underloaded_for_everything(self):
        for w in (QA_WEIGHTS, PR_WEIGHTS, AP_WEIGHTS):
            assert is_underloaded(w)

    def test_busy_node_not_underloaded(self):
        for w in (QA_WEIGHTS, PR_WEIGHTS, AP_WEIGHTS):
            assert not is_underloaded(w, cpu=3.0, disk=2.0)

    def test_cpu_busy_disk_idle_is_pr_underloaded(self):
        """The paper's key insight: a node saturated on CPU (running AP)
        still has its disk available for a PR sub-task."""
        assert is_underloaded(PR_WEIGHTS, cpu=1.0, disk=0.0, margin=1.0)
        assert not is_underloaded(AP_WEIGHTS, cpu=1.0, disk=0.0, margin=1.0)

    def test_disk_busy_cpu_idle_is_ap_underloaded(self):
        assert is_underloaded(AP_WEIGHTS, cpu=0.0, disk=1.0, margin=1.0)
        assert not is_underloaded(PR_WEIGHTS, cpu=0.0, disk=1.0, margin=1.0)

    def test_margin_scales_threshold(self):
        assert not is_underloaded(AP_WEIGHTS, cpu=0.9, margin=0.5)
        assert is_underloaded(AP_WEIGHTS, cpu=0.9, margin=1.5)
