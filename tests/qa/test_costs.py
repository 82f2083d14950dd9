"""Tests for the cost model."""

import pytest

from repro.qa import CostModel, ModuleCost, ReferenceHardware


class TestModuleCost:
    def test_seconds_on_reference(self):
        hw = ReferenceHardware(cpu_speed=1.0, disk_bandwidth=25e6)
        cost = ModuleCost(cpu_s=2.0, disk_bytes=50e6)
        assert cost.seconds_on(hw) == pytest.approx(2.0 + 2.0)

    def test_addition(self):
        c = ModuleCost(1.0, 10.0) + ModuleCost(2.0, 20.0)
        assert c.cpu_s == 3.0
        assert c.disk_bytes == 30.0

    def test_scaling(self):
        c = ModuleCost(1.0, 10.0).scaled(2.5)
        assert c.cpu_s == 2.5
        assert c.disk_bytes == 25.0

    def test_faster_cpu_shortens(self):
        fast = ReferenceHardware(cpu_speed=2.0)
        slow = ReferenceHardware(cpu_speed=1.0)
        cost = ModuleCost(cpu_s=4.0, disk_bytes=0.0)
        assert cost.seconds_on(fast) == cost.seconds_on(slow) / 2


class TestCostModel:
    def test_qp_cost_grows_with_keywords(self):
        m = CostModel.default()
        assert m.qp_cost(8).cpu_s > m.qp_cost(2).cpu_s
        assert m.qp_cost(5).disk_bytes == 0.0

    def test_pr_cost_split_matches_table3(self):
        """PR must be ~20 % CPU / 80 % disk on the reference node."""
        m = CostModel.default()
        cost = m.pr_collection_cost(postings_scanned=500, doc_bytes_read=20_000)
        disk_s = cost.disk_bytes / m.hardware.disk_bandwidth
        cpu_fraction = cost.cpu_s / (cost.cpu_s + disk_s)
        assert cpu_fraction == pytest.approx(0.20, abs=0.01)

    def test_pr_cost_has_floor(self):
        m = CostModel.default()
        assert m.pr_collection_cost(0, 0).disk_bytes >= m.pr_base_bytes

    def test_ps_and_ap_pure_cpu(self):
        m = CostModel.default()
        assert m.ps_cost(1000.0).disk_bytes == 0.0
        assert m.ap_paragraph_cost(1000.0, 3).disk_bytes == 0.0

    def test_ap_cost_grows_with_candidates(self):
        m = CostModel.default()
        assert (
            m.ap_paragraph_cost(1000.0, 5).cpu_s
            > m.ap_paragraph_cost(1000.0, 0).cpu_s
        )

    def test_po_cost_superlinear_in_paragraphs(self):
        m = CostModel.default()
        assert m.po_cost(1000).cpu_s > 2 * m.po_cost(100).cpu_s - m.po_base_cpu_s

    def test_memory_range_sane(self):
        lo, hi = CostModel.default().memory_per_question
        # The paper: 25 to 40 MB per question.
        assert lo == pytest.approx(25e6)
        assert hi == pytest.approx(40e6)
