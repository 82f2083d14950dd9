"""Tests for the meta-scheduling algorithm (Figure 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AP_WEIGHTS, PR_WEIGHTS, load_function, meta_schedule, single_task_load


def table(loads_cpu_disk):
    """Node id -> (cpu, disk) as the load table's two columns, in id order."""
    assert list(loads_cpu_disk) == list(range(len(loads_cpu_disk)))
    rows = list(loads_cpu_disk.values())
    return (
        np.array([cpu for cpu, _ in rows], dtype=float),
        np.array([disk for _, disk in rows], dtype=float),
    )


def schedule(columns, weights, observer=0, **kwargs):
    """Figure 4 on a fully fresh table, decided by ``observer``."""
    cpu, disk = columns
    loads = load_function(weights, cpu, disk, np.zeros_like(cpu))
    return meta_schedule(loads, weights, observer, None, **kwargs)


class TestSelection:
    def test_all_idle_selected(self):
        a = schedule(table({0: (0, 0), 1: (0, 0), 2: (0, 0)}), AP_WEIGHTS)
        assert sorted(a.node_ids) == [0, 1, 2]
        assert not a.forced_single
        assert a.partitioned

    def test_loaded_nodes_excluded(self):
        a = schedule(table({0: (0, 0), 1: (5.0, 0), 2: (0, 0)}), AP_WEIGHTS)
        assert sorted(a.node_ids) == [0, 2]

    def test_step2_all_loaded_selects_least(self):
        a = schedule(
            table({0: (3.0, 1.0), 1: (2.0, 1.0), 2: (4.0, 1.0)}), AP_WEIGHTS
        )
        assert a.node_ids == [1]
        assert a.forced_single
        assert not a.partitioned

    def test_resource_specialisation(self):
        """A CPU-saturated node is still PR-eligible (disk idle)."""
        t = table({0: (1.2, 0.0), 1: (1.2, 0.0), 2: (1.2, 1.2)})
        pr = schedule(t, PR_WEIGHTS)
        assert 0 in pr.node_ids and 1 in pr.node_ids
        assert 2 not in pr.node_ids

    def test_max_parts_cap(self):
        t = table({i: (0, 0) for i in range(10)})
        a = schedule(t, AP_WEIGHTS, max_parts=4)
        assert len(a.shares) == 4

    def test_include_forces_host_into_partition(self):
        t = table({0: (1.05, 0.0), 1: (0, 0), 2: (0, 0)})
        a = schedule(t, AP_WEIGHTS, underload_margin=1.0, include=0)
        assert 0 in a.node_ids
        assert len(a.node_ids) == 3

    def test_include_survives_max_parts_trim(self):
        t = table({0: (1.05, 0.0), 1: (0, 0), 2: (0, 0), 3: (0, 0)})
        a = schedule(t, AP_WEIGHTS, max_parts=2, include=0)
        assert 0 in a.node_ids

    def test_include_ignored_when_forced_single(self):
        t = table({0: (3.0, 0), 1: (2.0, 0)})
        a = schedule(t, AP_WEIGHTS, include=0, stay_on=None)
        assert a.node_ids == [1]

    def test_stay_threshold_prevents_useless_migration(self):
        t = table({0: (2.0, 0), 1: (1.5, 0)})
        a = schedule(
            t, AP_WEIGHTS, stay_on=0, stay_threshold=single_task_load(AP_WEIGHTS)
        )
        assert a.node_ids == [0]

    def test_stay_threshold_allows_worthwhile_migration(self):
        t = table({0: (4.0, 0), 1: (1.0, 0)})
        a = schedule(
            t, AP_WEIGHTS, stay_on=0, stay_threshold=single_task_load(AP_WEIGHTS)
        )
        assert a.node_ids == [1]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            meta_schedule(np.zeros(0), AP_WEIGHTS, 0)


class TestWeights:
    def test_shares_sum_to_one(self):
        t = table({0: (0.2, 0), 1: (0.5, 0), 2: (0.0, 0)})
        a = schedule(t, AP_WEIGHTS)
        assert sum(w for _, w in a.shares) == pytest.approx(1.0)

    def test_less_loaded_gets_more(self):
        t = table({0: (0.8, 0), 1: (0.1, 0)})
        a = schedule(t, AP_WEIGHTS)
        shares = dict(a.shares)
        assert shares[1] > shares[0]

    def test_idle_nodes_get_equal_shares(self):
        t = table({i: (0, 0) for i in range(4)})
        a = schedule(t, AP_WEIGHTS)
        values = [w for _, w in a.shares]
        assert max(values) - min(values) < 1e-9

    def test_near_idle_cluster_shares_nearly_equal(self):
        """Tiny residual loads must not starve any node (DESIGN.md §4)."""
        t = table({0: (0.08, 0), 1: (0.0, 0), 2: (0.02, 0), 3: (0.0, 0)})
        a = schedule(t, AP_WEIGHTS)
        values = [w for _, w in a.shares]
        assert min(values) > 0.8 * max(values)

    def test_single_selection_weight_one(self):
        t = table({0: (9, 9), 1: (8, 8)})
        a = schedule(t, AP_WEIGHTS)
        assert a.shares == ((1, 1.0),)

    @given(
        loads=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=5),
                st.floats(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=12,
        ),
        margin=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, loads, margin):
        t = table(dict(enumerate(loads)))
        a = schedule(t, PR_WEIGHTS, underload_margin=margin)
        # Shares sum to 1, all positive, node ids unique and valid.
        assert sum(w for _, w in a.shares) == pytest.approx(1.0)
        assert all(w > 0 for _, w in a.shares)
        ids = [nid for nid, _ in a.shares]
        assert len(ids) == len(set(ids))
        assert set(ids) <= set(range(len(loads)))
