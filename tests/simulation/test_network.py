"""Tests for the shared-medium network model and failure injection."""

import pytest

from repro.simulation import (
    Environment,
    FailureInjector,
    FailureSchedule,
    Network,
    TransferFailed,
)


@pytest.fixture()
def env():
    return Environment()


def make_net(env, bw=100e6, latency=0.0, setup=0.0):
    return Network(
        env, bandwidth_bps=bw, latency_s=latency, connection_setup_s=setup
    )


class TestTransfers:
    def test_transfer_time_matches_bandwidth(self, env):
        net = make_net(env, bw=80e6)  # 10 MB/s
        out = []

        def p():
            dt = yield from net.transfer("a", "b", 5e6)
            out.append(dt)

        env.process(p())
        env.run()
        assert out == [pytest.approx(0.5)]

    def test_latency_added(self, env):
        net = make_net(env, bw=8e6, latency=0.010)  # 1 MB/s
        out = []

        def p():
            dt = yield from net.transfer("a", "b", 1e6)
            out.append(dt)

        env.process(p())
        env.run()
        assert out == [pytest.approx(1.010)]

    def test_connection_setup_charged_only_when_requested(self, env):
        net = make_net(env, bw=8e6, setup=0.1)
        out = []

        def p(new_conn):
            dt = yield from net.transfer("a", "b", 1e6, new_connection=new_conn)
            out.append(dt)

        env.process(p(True))
        env.run()
        env2 = Environment()
        net2 = Network(env2, bandwidth_bps=8e6, latency_s=0.0, connection_setup_s=0.1)
        out2 = []

        def q():
            dt = yield from net2.transfer("a", "b", 1e6, new_connection=False)
            out2.append(dt)

        env2.process(q())
        env2.run()
        assert out[0] - out2[0] == pytest.approx(0.1)

    def test_concurrent_transfers_share_bandwidth(self, env):
        net = make_net(env, bw=80e6)  # 10 MB/s
        done = []

        def p(i):
            yield from net.transfer(i, "dst", 5e6)
            done.append((i, env.now))

        env.process(p(0))
        env.process(p(1))
        env.run()
        # Two 5 MB transfers at shared 10 MB/s: both complete at t=1.0.
        assert [t for _, t in done] == [pytest.approx(1.0)] * 2

    def test_zero_byte_transfer(self, env):
        net = make_net(env)
        out = []

        def p():
            dt = yield from net.transfer("a", "b", 0.0)
            out.append(dt)

        env.process(p())
        env.run()
        assert out == [pytest.approx(0.0)]

    def test_negative_size_rejected(self, env):
        net = make_net(env)

        def p():
            yield from net.transfer("a", "b", -1.0)

        env.process(p())
        with pytest.raises(ValueError):
            env.run()

    def test_accounting(self, env):
        net = make_net(env, bw=80e6)

        def p():
            yield from net.transfer("a", "b", 1e6)
            net.book_broadcasts(4, 2e6)

        env.process(p())
        env.run()
        assert net.bytes_transferred == pytest.approx(3e6)
        assert net.messages_sent == 1
        assert net.broadcasts_sent == 4


class TestFailureSemantics:
    def test_transfer_to_down_node_fails_immediately(self, env):
        net = make_net(env)
        net.set_node_up("b", False)
        caught = []

        def p():
            try:
                yield from net.transfer("a", "b", 1e6)
            except TransferFailed as exc:
                caught.append(exc.reason)

        env.process(p())
        env.run()
        assert caught == ["endpoint down"]

    def test_mid_transfer_failure_detected_at_completion(self, env):
        net = make_net(env, bw=8e6)  # 1 MB/s
        caught = []

        def sender():
            try:
                yield from net.transfer("a", "b", 2e6)  # 2 s
            except TransferFailed as exc:
                caught.append((exc.reason, env.now))

        def killer():
            yield env.timeout(1.0)
            net.set_node_up("b", False)

        env.process(sender())
        env.process(killer())
        env.run()
        assert caught == [("endpoint failed mid-transfer", pytest.approx(2.0))]

    def test_recovery_restores_reachability(self, env):
        net = make_net(env)
        net.set_node_up("b", False)
        net.set_node_up("b", True)
        assert net.is_up("b")


class TestFailureInjector:
    def test_schedule_applies_transitions_in_order(self, env):
        net = make_net(env)
        transitions = []
        inj = FailureInjector(
            env,
            set_node_up=net.set_node_up,
            on_transition=lambda n, up: transitions.append((env.now, n, up)),
        )
        sched = FailureSchedule().kill_at(2.0, "n1").recover_at(5.0, "n1")
        inj.apply(sched)
        env.run()
        assert transitions == [(2.0, "n1", False), (5.0, "n1", True)]
        assert net.is_up("n1")

    def test_kill_now_immediate(self, env):
        net = make_net(env)
        inj = FailureInjector(env, set_node_up=net.set_node_up)
        inj.apply(FailureSchedule().kill_at(env.now, "n2"))
        env.step()  # the injector's first step: nothing to wait for
        assert not net.is_up("n2")
        assert inj.log == [(0.0, "n2", False)]
