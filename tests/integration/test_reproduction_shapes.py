"""Integration tests pinning the paper's headline result *shapes*.

These are the acceptance criteria from DESIGN.md §5: the reproduction
must show who wins, by roughly what factor, and where the crossovers
fall — not the testbed's absolute numbers.
"""

import numpy as np
import pytest

from repro.core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.experiments.context import complex_profiles
from repro.workload import run_high_load, run_one_at_a_time

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def intra_rows():
    """Module times at 1/4/8/12 nodes for a fixed complex question set."""
    profiles = complex_profiles(6)
    rows = {}
    for n in (1, 4, 8, 12):
        results = run_one_at_a_time(
            SystemConfig(n_nodes=n, strategy=Strategy.DQA), profiles
        )
        rows[n] = {
            k: float(np.mean([r.module_times[k] for r in results]))
            for k in ("QP", "PR", "PS", "PO", "AP")
        }
        rows[n]["resp"] = float(np.mean([r.response_time for r in results]))
    return rows


class TestIntraQuestionShapes:
    def test_response_time_decreases_with_nodes(self, intra_rows):
        resp = [intra_rows[n]["resp"] for n in (1, 4, 8, 12)]
        assert resp == sorted(resp, reverse=True)

    def test_pr_flat_from_8_to_12_nodes(self, intra_rows):
        """Only 8 sub-collections exist, so PR cannot improve past 8
        processors (Section 6.2's second observation)."""
        assert intra_rows[12]["PR"] == pytest.approx(intra_rows[8]["PR"], rel=0.02)
        assert intra_rows[8]["PR"] < intra_rows[4]["PR"]

    def test_ap_keeps_scaling_to_12(self, intra_rows):
        assert intra_rows[12]["AP"] < intra_rows[8]["AP"] < intra_rows[4]["AP"]

    def test_sequential_modules_unchanged(self, intra_rows):
        for n in (4, 8, 12):
            assert intra_rows[n]["QP"] == pytest.approx(intra_rows[1]["QP"], rel=0.05)
            assert intra_rows[n]["PO"] == pytest.approx(intra_rows[1]["PO"], rel=0.05)

    def test_speedup_meaningful_but_sublinear(self, intra_rows):
        s4 = intra_rows[1]["resp"] / intra_rows[4]["resp"]
        s12 = intra_rows[1]["resp"] / intra_rows[12]["resp"]
        assert 2.5 < s4 < 4.0  # paper measured 3.67
        assert 4.0 < s12 < 9.0  # paper measured 7.48
        assert s12 > s4

    def test_measured_below_analytical(self, intra_rows):
        from repro.model import ModelParameters, question_speedup

        p = ModelParameters()
        for n in (4, 8, 12):
            measured = intra_rows[1]["resp"] / intra_rows[n]["resp"]
            assert measured < question_speedup(p, n)


class TestPartitioningShapes:
    def _ap_time(self, n_nodes, strategy, profiles, chunk=40):
        policy = TaskPolicy(ap_strategy=strategy, ap_chunk_paragraphs=chunk)
        results = run_one_at_a_time(
            SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA, policy=policy),
            profiles,
        )
        return float(np.mean([r.module_times["AP"] for r in results]))

    def test_send_clearly_worst_isend_recv_close(self):
        """Table 11's ordering: SEND clearly worst; ISEND and RECV "very
        close" to each other (Section 4.1.3)."""
        profiles = complex_profiles(6)
        send = self._ap_time(8, PartitioningStrategy.SEND, profiles)
        isend = self._ap_time(8, PartitioningStrategy.ISEND, profiles)
        recv = self._ap_time(8, PartitioningStrategy.RECV, profiles)
        assert send > isend
        assert send > recv
        assert abs(isend - recv) / min(isend, recv) < 0.35

    def test_chunk_size_has_interior_optimum(self):
        """Figure 10: speedup peaks at a middle chunk size."""
        profiles = complex_profiles(5)
        times = {
            chunk: self._ap_time(8, PartitioningStrategy.RECV, profiles, chunk)
            for chunk in (5, 20, 100)
        }
        assert times[20] < times[5]
        assert times[20] < times[100]


class TestLoadBalancingShapes:
    @pytest.fixture(scope="class")
    def high_load(self):
        """Mean throughput over 40 seeds at 8 nodes.

        DQA - INTER is 0.36 +- 0.23 q/min from seed to seed, so a mean of
        a few draws judges the draws rather than the strategies.
        """
        out = {}
        for strategy in (Strategy.DNS, Strategy.INTER, Strategy.DQA):
            config = SystemConfig(n_nodes=8, strategy=strategy, collect_metrics=False)
            thr = [
                run_high_load(DistributedQASystem(config), seed).throughput_qpm
                for seed in range(100, 140)
            ]
            out[strategy.value] = float(np.mean(thr))
        return out

    def test_throughput_ordering(self, high_load):
        """Table 5: DNS < INTER < DQA at high load."""
        assert high_load["DNS"] < high_load["INTER"] < high_load["DQA"]

    def test_dqa_gain_substantial(self, high_load):
        """DQA beats DNS by a double-digit percentage."""
        assert high_load["DQA"] / high_load["DNS"] > 1.10
