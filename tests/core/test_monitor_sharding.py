"""Tests for the load-monitor plane: groups, the shared table,
announcements and the Eq 14 charge."""

import pytest

from repro.core import (
    AP_WEIGHTS,
    PR_WEIGHTS,
    ClusterNode,
    DistributedQASystem,
    MonitoringSystem,
    NodeConfig,
    SystemConfig,
)
from repro.core.monitor import auto_shard_count
from repro.model import ModelParameters, monitoring_round_s
from repro.observability.metrics import MetricsRegistry
from repro.observability.names import MONITOR_BROADCASTS, MONITOR_BUSY_S
from repro.simulation import Environment, Network
from repro.workload import run_high_load


@pytest.fixture()
def env():
    return Environment()


def build(env, n=6, shards=2, interval=1.0, metrics=None, node_config=None):
    net = Network(env, bandwidth_bps=100e6)
    nodes = [ClusterNode(env, i, node_config) for i in range(n)]
    mon = MonitoringSystem(
        env, net, nodes, interval_s=interval, shards=shards, metrics=metrics
    )
    return net, nodes, mon


class TestShardLayout:
    def test_auto_shard_count_is_about_sqrt(self):
        assert auto_shard_count(1) == 1
        assert auto_shard_count(16) == 4
        assert auto_shard_count(1000) == 32

    def test_legacy_mode_by_default(self, env):
        """``shards=0`` is the paper's broadcast: one group at phase 0."""
        net = Network(env, bandwidth_bps=100e6)
        nodes = [ClusterNode(env, i) for i in range(3)]
        mon = MonitoringSystem(env, net, nodes)
        assert [(g.phase_s, g.members) for g in mon.groups] == [(0.0, (0, 1, 2))]

    def test_members_partition_the_cluster(self, env):
        _, _, mon = build(env, n=7, shards=3)
        all_members = [nid for g in mon.groups for nid in g.members]
        assert all_members == list(range(7))
        assert [g.phase_s for g in mon.groups] == pytest.approx([0, 1 / 3, 2 / 3])

    def test_shards_clamped_to_node_count(self, env):
        _, _, mon = build(env, n=3, shards=10)
        assert len(mon.groups) == 3


class TestShardedView:
    def test_seeded_view_covers_all_nodes_before_first_publish(self, env):
        _, _, mon = build(env, n=6, shards=2)
        assert mon.fresh() is None  # every row in the pool
        assert mon.table.written.tolist() == [0.0] * 6
        assert len(mon.loads(AP_WEIGHTS, 0)) == 6

    def test_view_reflects_published_not_working_state(self, env):
        _, nodes, mon = build(env, n=4, shards=2)

        def burn():
            yield from nodes[1].run_cpu(5.0)

        env.process(burn())
        env.run(until=2.5)
        # Node 1's group wrote at 1.0 and 2.0: the table carries the 2.0
        # write of the busy node, not its state at 2.5.
        assert mon.table.written[1] == 2.0
        assert mon.table.cpu[1] > 0.4
        assert mon.loads(AP_WEIGHTS, 0)[1] == mon.table.cpu[1]

    def test_observer_sees_itself_live(self, env):
        _, nodes, mon = build(env, n=4, shards=2)
        nodes[0].active_questions = 9
        nodes[0].cpu.use(5.0)
        assert mon.live_entry(0) == (1.0, 0.0, 9, 0)
        assert mon.table.questions[0] == 0  # the written row is older
        assert mon.loads(AP_WEIGHTS, 0)[0] == 1.0
        assert mon.loads(AP_WEIGHTS, 1)[0] == 0.0

    def test_local_snapshot_tracks_self_report(self, env):
        """A node's own table entry is its last write, like any peer's."""
        _, _, mon = build(env, n=4, shards=2)
        assert len(mon.table.written) == 4
        env.run(until=2.5)
        assert mon.table.written[2] == 2.5  # group 1 writes at k + 0.5

    def test_dead_node_leaves_view_after_timeout(self, env):
        _, nodes, mon = build(env, n=4, shards=2)
        env.run(until=2.5)
        nodes[3].up = False
        env.run(until=9.0)
        assert mon.fresh().tolist() == [True, True, True, False]
        assert (9.0, 3, False) not in mon.membership_log  # logged earlier
        assert any(nid == 3 and not live
                   for _, nid, live in mon.membership_log)


class TestOptimisticBumps:
    """A bump is an announced write into the one shared table."""

    def test_bump_seen_by_every_observer_at_once(self, env):
        _, _, mon = build(env, n=6, shards=2)
        env.run(until=2.5)
        before = (mon.table.questions[3], mon.table.waiting[3])
        unbumped = mon.loads(PR_WEIGHTS, 0)[3]
        mon.announce(3, questions=1)
        assert (mon.table.questions[3], mon.table.waiting[3]) == (before[0] + 1, before[1] + 1)
        for observer in (0, 1, 2, 4, 5):
            assert mon.loads(PR_WEIGHTS, observer)[3] > unbumped
        # The target itself still sees its live state.
        assert mon.loads(PR_WEIGHTS, 3)[3] == unbumped

    def test_load_share_bump_accumulates(self, env):
        _, _, mon = build(env, n=6, shards=2)
        env.run(until=2.5)
        table = mon.table
        base = (table.cpu[4], table.disk[4], table.questions[4])
        mon.announce(4, cpu=0.5, disk=0.25)
        mon.announce(4, cpu=0.5, disk=0.25)
        mon.announce(4, questions=1)
        assert table.cpu[4] == pytest.approx(base[0] + 1.0)
        assert table.disk[4] == pytest.approx(base[1] + 0.5)
        assert table.questions[4] == base[2] + 1

    def test_bump_keeps_timestamp_and_leaves_membership_alone(self, env):
        _, nodes, mon = build(env, n=4, shards=0)
        env.run(until=2.3)
        nodes[2].up = False
        env.run(until=4.5)
        mon.announce(2, questions=1, cpu=0.3)
        assert mon.table.written[2] == 2.0
        env.run(until=9.0)
        # A dead node's announced entry ages out like any other.
        assert not mon.fresh()[2]
        assert [(nid, live) for _, nid, live in mon.membership_log] == [(2, False)]

    def test_bump_expires_once_fresher_measurement_publishes(self, env):
        _, _, mon = build(env, n=6, shards=2)
        env.run(until=2.2)
        mon.announce(3, questions=1)  # node 3 is in group 1 (phase 0.5)
        env.run(until=2.4)
        assert mon.table.questions[3] == 1
        # Node 3's next write lands at 2.5 and supersedes the announcement.
        env.run(until=2.5)
        assert mon.table.questions[3] == 0
        assert mon.table.written[3] == 2.5

    def test_bump_books_one_s_load_and_nothing_under_monitor(self, env):
        reg = MetricsRegistry()
        net, _, mon = build(env, n=6, shards=2, metrics=reg)
        env.run(until=1.7)
        sent, nbytes = net.broadcasts_sent, net.bytes_transferred
        busy = reg.value(MONITOR_BUSY_S)
        mon.announce(1, questions=1)
        mon.announce(5, cpu=0.4, disk=0.1)
        assert net.broadcasts_sent == sent + 2
        assert net.bytes_transferred == pytest.approx(nbytes + 2 * 512.0)
        assert reg.value(MONITOR_BROADCASTS) == 6  # rounds at 1.0 and 1.5
        assert reg.value(MONITOR_BUSY_S) == busy


class TestUploadPlane:
    def test_publishers_count_and_metric(self, env):
        reg = MetricsRegistry()
        _, _, mon = build(env, n=6, shards=2, metrics=reg)
        env.run(until=3.4)
        # Group 0 wrote at 1, 2, 3 and group 1 at 1.5, 2.5: five rounds of
        # three members each.
        assert mon.rounds == 5
        assert reg.value(MONITOR_BROADCASTS) == 15

    def test_publish_traffic_scales_with_members_not_cluster(self, env):
        _, _, mon = build(env, n=6, shards=3)
        # A group's round carries members * packet_bytes — the per-group
        # N_k * S_load term of Eq 14.
        assert [g.nbytes for g in mon.groups] == [2 * 512.0] * 3


class TestChargedPlane:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("shards", [0, 4])
    def test_one_event_per_group_per_interval(self, env, n, shards):
        """Events per interval depend on the group count, not on N."""
        _, _, mon = build(env, n=n, shards=shards)
        env.run(until=5.9)
        before = next(env._seq)
        env.run(until=15.9)
        fired = next(env._seq) - before - 1
        # Ten intervals: one round per group plus the membership sentinel.
        assert fired == 10 * (max(1, shards) + 1)
        assert mon.rounds == 15 * max(1, shards)

    def test_booked_busy_time_is_eq14_and_fold_matches_model(self):
        system = DistributedQASystem(SystemConfig(n_nodes=4, trace=True, seed=3))
        report = run_high_load(system, 3, n_questions=8)
        writes = system.metrics.value(MONITOR_BROADCASTS)
        per_round = monitoring_round_s(ModelParameters(s_load=512.0, b_net=100e6), 4)
        assert writes > 0
        assert system.metrics.value(MONITOR_BUSY_S) == pytest.approx(
            writes * per_round, rel=1e-12
        )
        from repro.observability import attribute_workload

        fold = attribute_workload(system.spans, system.metrics, report, system.config)
        assert fold.model_comparison["monitoring"]["rel_err"] <= 1e-9

    def test_killed_node_leaves_and_rejoins_on_first_write(self, env):
        net, nodes, mon = build(env, n=4, shards=0)
        env.run(until=2.3)
        nodes[2].up = False
        net.set_node_up(2, False)
        env.run(until=2.3 + mon.membership_timeout_s + mon.interval_s)
        assert not mon.fresh()[2]
        (left,) = [w for w, nid, live in mon.membership_log if nid == 2 and not live]
        assert left <= 2.3 + mon.membership_timeout_s + mon.interval_s
        env.run(until=10.2)
        nodes[2].up = True
        net.set_node_up(2, True)
        env.run(until=10.9)
        assert not mon.fresh()[2]
        env.run(until=11.0)  # the group's first round after recovery
        assert mon.fresh() is None
        assert mon.table.written[2] == 11.0

    def test_cpu_reservation_composes_with_thrash(self, env):
        cfg = NodeConfig(memory_bytes=200e6, baseline_memory_bytes=100e6, thrash_factor=4.0)
        net, nodes, mon = build(env, n=2, shards=0, interval=0.5, node_config=cfg)
        assert nodes[0].cpu.capacity == 1.0  # nothing measured before round one
        env.run(until=0.5)
        reserved = 1e-3 / 0.5
        assert nodes[0].cpu.capacity == pytest.approx(1.0 - reserved)
        nodes[0].memory.allocate(150e6)  # overcommit 0.25
        assert nodes[0].cpu.capacity == pytest.approx((1.0 - reserved) / (1 + 4.0 * 0.25))
        nodes[0].memory.release(150e6)
        assert nodes[0].cpu.capacity == pytest.approx(1.0 - reserved)
        # The medium holds back the N * S_load bytes of every interval.
        assert net.medium.capacity == pytest.approx(100e6 / 8 - 2 * 512.0 / 0.5)
