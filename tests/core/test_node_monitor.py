"""Tests for cluster nodes, admission control and load monitoring."""

import pytest

from repro.core import (
    AP_WEIGHTS,
    QA_WEIGHTS,
    ClusterNode,
    MonitoringSystem,
    NodeConfig,
    QuestionDispatcher,
    meta_schedule,
)
from repro.simulation import Environment, Network


@pytest.fixture()
def env():
    return Environment()


class TestNode:
    def test_resources_created(self, env):
        node = ClusterNode(env, 0)
        assert node.cpu.capacity == 1.0
        assert node.disk.capacity == 25e6
        assert node.memory.allocated == node.config.baseline_memory_bytes

    def test_run_cost_serialises_disk_then_cpu(self, env):
        from repro.qa import ModuleCost

        node = ClusterNode(env, 0)
        done = []

        def p():
            yield from node.run_cost(ModuleCost(cpu_s=1.0, disk_bytes=25e6))
            done.append(env.now)

        env.process(p())
        env.run()
        assert done == [pytest.approx(2.0)]  # 1 s disk + 1 s cpu

    def test_memory_pressure_slows_cpu(self, env):
        node = ClusterNode(
            env, 0, NodeConfig(memory_bytes=200e6, baseline_memory_bytes=100e6,
                               thrash_factor=4.0)
        )
        node.memory.allocate(150e6)  # overcommit (250-200)/200 = 0.25
        assert node.cpu.capacity == pytest.approx(1.0 / (1 + 4.0 * 0.25))
        node.memory.release(150e6)
        assert node.cpu.capacity == pytest.approx(1.0)

    def test_admission_fifo_and_capacity(self, env):
        node = ClusterNode(env, 0, NodeConfig(max_concurrent_questions=2))
        order = []

        def question(i, duration):
            node.active_questions += 1
            yield node.admit_question()
            order.append(("start", i, env.now))
            yield from node.run_cpu(duration)
            node.active_questions -= 1
            node.release_question()
            order.append(("end", i, env.now))

        for i in range(3):
            env.process(question(i, 1.0))
        env.run()
        starts = [t for kind, i, t in order if kind == "start"]
        # Two admitted immediately, third only after a slot frees.
        assert starts[0] == starts[1] == 0.0
        assert starts[2] > 0.0

    def test_waiting_questions_counter(self, env):
        node = ClusterNode(env, 0, NodeConfig(max_concurrent_questions=1))
        node.admit_question()
        node.admit_question()
        assert node.waiting_questions == 1
        node.release_question()
        assert node.waiting_questions == 0

    def test_release_admits_oldest(self, env):
        node = ClusterNode(env, 0, NodeConfig(max_concurrent_questions=1))
        node.admit_question()
        oldest, middle = (node.admit_question() for _ in range(2))
        node.release_question()
        assert oldest.triggered and oldest.ok and not middle.triggered
        assert node.waiting_questions == 1

    def test_load_checkpoints_measure_activity(self, env):
        node = ClusterNode(env, 0)
        mon = MonitoringSystem(env, Network(env, bandwidth_bps=100e6), [node], interval_s=4.0)
        node.cpu.use(2.0)
        env.run(until=4.5)
        assert mon.table.written[0] == 4.0
        # CPU active half of the 4-second window and idle at the write,
        # which blends the two half and half.
        assert mon.table.cpu[0] == pytest.approx(0.25)
        assert mon.table.disk[0] == pytest.approx(0.0)


class TestMonitoring:
    def _build(self, env, n=3, interval=1.0):
        net = Network(env, bandwidth_bps=100e6)
        nodes = [ClusterNode(env, i) for i in range(n)]
        mon = MonitoringSystem(env, net, nodes, interval_s=interval)
        return net, nodes, mon

    def test_tables_seeded_for_instant_dispatch(self, env):
        _, _, mon = self._build(env)
        assert mon.fresh() is None
        assert mon.loads(QA_WEIGHTS, 0).tolist() == [0.0, 0.0, 0.0]

    def test_broadcasts_update_peer_tables(self, env):
        _, nodes, mon = self._build(env)

        def burn():
            yield from nodes[1].run_cpu(5.0)

        env.process(burn())
        env.run(until=2.5)
        assert mon.table.written[1] > 0
        assert mon.table.cpu[1] > 0.5
        assert mon.loads(AP_WEIGHTS, 0)[1] == mon.table.cpu[1]

    def test_observer_sees_itself_live(self, env):
        _, nodes, mon = self._build(env)
        nodes[0].active_questions = 7
        assert mon.live_entry(0)[2] == 7  # not waiting for a broadcast
        dispatcher = QuestionDispatcher(mon)
        assert dispatcher.qa_loads(0)[0] > dispatcher.qa_loads(1)[0]

    def test_dead_node_leaves_membership(self, env):
        net, nodes, mon = self._build(env)
        env.run(until=1.5)  # everyone broadcast once
        nodes[2].up = False
        net.set_node_up(2, False)
        env.run(until=6.0)  # beyond the membership timeout
        assert mon.fresh().tolist() == [True, True, False]
        # A node always sees itself: node 2's own decision can pick it.
        loads = mon.loads(AP_WEIGHTS, 2)
        assert meta_schedule(loads, AP_WEIGHTS, 2, mon.fresh()).node_ids == [0, 1, 2]
        assert meta_schedule(mon.loads(AP_WEIGHTS, 0), AP_WEIGHTS, 0, mon.fresh()).node_ids == [0, 1]

    def test_recovered_node_rejoins(self, env):
        net, nodes, mon = self._build(env)
        nodes[1].up = False
        net.set_node_up(1, False)
        env.run(until=6.0)
        assert not mon.fresh()[1]
        nodes[1].up = True
        net.set_node_up(1, True)
        env.run(until=8.0)
        assert mon.fresh() is None

    def test_monitoring_consumes_network(self, env):
        net, _, mon = self._build(env)
        env.run(until=5.5)
        assert net.broadcasts_sent >= 3 * 5
        assert net.bytes_transferred > 0

    def test_round_writes_match_time_weighted_averages(self, env):
        """Each written entry is ``0.5 * TimeWeightedSignal.average`` over
        the window since the member's last write ``+ 0.5 *`` its value,
        to the last bit: idle, busy all window, busy part of it."""
        _, nodes, mon = self._build(env, n=4)
        nodes[1].cpu.use(100.0)  # busy every window
        nodes[1].disk.use(1e9)
        nodes[2].cpu.use(1.5)  # busy all of the first window, part of the second
        nodes[3].disk.use(10e6)  # busy part of the first window
        signals = [(n.cpu.active_jobs, n.disk.active_jobs) for n in nodes]
        checks = []

        def checkpoint(signal, now):
            """``(now, integral)``: the start of a window."""
            return (now, signal.integral(now))

        def average(signal, checkpoint, now):
            """The signal's mean since ``checkpoint``; its value when the
            window is empty."""
            t0, i0 = checkpoint
            if now <= t0:
                return signal.value
            return (signal.integral(now) - i0) / (now - t0)

        def expected(checkpoints, now):
            return [
                tuple(0.5 * average(s, cp, now) + 0.5 * s.value for s, cp in zip(sigs, cps))
                for sigs, cps in zip(signals, checkpoints)
            ]

        def table_rows():
            return [(mon.table.cpu[n], mon.table.disk[n]) for n in range(4)]

        def oracle():
            checkpoints = [tuple(checkpoint(s, 0.0) for s in sigs) for sigs in signals]
            for _ in range(2):
                # Wakes just after the round write at the same instant.
                yield env.timeout(1.0)
                now = env.now
                checks.append((table_rows(), expected(checkpoints, now)))
                checkpoints = [tuple(checkpoint(s, now) for s in sigs) for sigs in signals]
            # A second write at the same instant: an empty window, so the
            # instantaneous value stands in for the average.
            mon._round(mon.groups[0], None)
            checks.append((table_rows(), expected(checkpoints, env.now)))

        env.run(until=env.process(oracle()))
        assert [entry[0] for entry in checks[0][0]] == [0.0, 1.0, 1.0, 0.0]
        assert 0.0 < checks[0][0][3][1] < 0.5 and 0.0 < checks[1][0][2][0] < 0.5
        for written, want in checks:
            assert written == want

    def test_live_snapshot_reflects_instant_state(self, env):
        _, nodes, mon = self._build(env)

        def p():
            nodes[0].cpu.use(100.0)
            yield env.timeout(0.1)
            assert mon.live_entry(0)[0] == pytest.approx(1.0)
            assert mon.table.cpu[0] == 0.0  # no round has written it yet

        env.run(until=env.process(p()))
