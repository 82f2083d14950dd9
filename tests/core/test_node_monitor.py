"""Tests for cluster nodes, admission control and load monitoring."""

import pytest

from repro.core import ClusterNode, MonitoringSystem, NodeConfig
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

        def p():
            cp = node.load_checkpoints()
            yield from node.run_cpu(2.0)
            yield env.timeout(2.0)
            cpu_load, disk_load = node.loads_since(cp)
            # CPU active half of the 4-second window.
            assert cpu_load == pytest.approx(0.5)
            assert disk_load == pytest.approx(0.0)

        env.run(until=env.process(p()))


class TestMonitoring:
    def _build(self, env, n=3, interval=1.0):
        net = Network(env, bandwidth_bps=100e6)
        nodes = [ClusterNode(env, i) for i in range(n)]
        mon = MonitoringSystem(env, net, nodes, interval_s=interval)
        return net, nodes, mon

    def test_tables_seeded_for_instant_dispatch(self, env):
        _, _, mon = self._build(env)
        view = mon.view(0)
        assert set(view) == {0, 1, 2}

    def test_broadcasts_update_peer_tables(self, env):
        _, nodes, mon = self._build(env)

        def burn():
            yield from nodes[1].run_cpu(5.0)

        env.process(burn())
        env.run(until=2.5)
        snap = mon.view(0)[1]
        assert snap.timestamp > 0
        assert snap.cpu_load > 0.5

    def test_observer_sees_itself_live(self, env):
        _, nodes, mon = self._build(env)
        nodes[0].active_questions = 7
        snap = mon.view(0)[0]
        assert snap.n_questions == 7  # not waiting for a broadcast

    def test_dead_node_leaves_membership(self, env):
        net, nodes, mon = self._build(env)
        env.run(until=1.5)  # everyone broadcast once
        nodes[2].up = False
        net.set_node_up(2, False)
        env.run(until=6.0)  # beyond the membership timeout
        assert 2 not in mon.view(0)
        assert 2 in mon.view(2)  # a node always sees itself

    def test_recovered_node_rejoins(self, env):
        net, nodes, mon = self._build(env)
        nodes[1].up = False
        net.set_node_up(1, False)
        env.run(until=6.0)
        assert 1 not in mon.view(0)
        nodes[1].up = True
        net.set_node_up(1, True)
        env.run(until=8.0)
        assert 1 in mon.view(0)

    def test_monitoring_consumes_network(self, env):
        net, _, mon = self._build(env)
        env.run(until=5.5)
        assert net.broadcasts_sent >= 3 * 5
        assert net.bytes_transferred > 0

    def test_live_snapshot_reflects_instant_state(self, env):
        _, nodes, mon = self._build(env)

        def p():
            nodes[0].cpu.use(100.0)
            yield env.timeout(0.1)
            snap = mon.live_snapshot(0)
            assert snap.cpu_load == pytest.approx(1.0)

        env.run(until=env.process(p()))
