"""Edge-case tests: engine/resource/network interactions under heavy
concurrency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    Environment,
    FairShareResource,
    Network,
    TransferFailed,
)


class TestNetworkEdgeCases:
    def test_many_concurrent_transfers_conserve_bytes(self):
        env = Environment()
        net = Network(env, bandwidth_bps=80e6, latency_s=0.0)
        sizes = [1e5 * (i + 1) for i in range(20)]

        def sender(i, size):
            yield from net.transfer(i, "sink", size)

        for i, size in enumerate(sizes):
            env.process(sender(i, size))
        env.run()
        assert net.bytes_transferred == pytest.approx(sum(sizes))
        assert net.messages_sent == 20

    def test_transfer_failure_does_not_count_bytes(self):
        env = Environment()
        net = Network(env, bandwidth_bps=8e6, latency_s=0.0)
        net.set_node_up("dst", False)

        def sender():
            with pytest.raises(TransferFailed):
                yield from net.transfer("src", "dst", 1e6)

        env.process(sender())
        env.run()
        assert net.bytes_transferred == 0.0

    @given(
        sizes=st.lists(
            st.floats(min_value=1e3, max_value=1e7), min_size=1, max_size=10
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_equals_total_bytes_over_bandwidth(self, sizes):
        """Work conservation on the shared medium: with simultaneous
        starts and no latency, everything completes exactly when the
        total volume has crossed the link."""
        env = Environment()
        net = Network(env, bandwidth_bps=80e6, latency_s=0.0)

        def sender(i, size):
            yield from net.transfer(i, "sink", size)

        for i, size in enumerate(sizes):
            env.process(sender(i, size))
        env.run()
        assert env.now == pytest.approx(sum(sizes) / 10e6, rel=1e-6)


class TestDeterminismUnderConcurrency:
    def test_complex_scenario_reproducible(self):
        def scenario():
            env = Environment()
            cpu = FairShareResource(env, 1.0)
            disk = FairShareResource(env, 10.0)
            net = Network(env, bandwidth_bps=80e6, latency_s=1e-3)
            log = []

            def worker(i):
                yield env.timeout(i * 0.1)
                job = disk.use(float(i + 1))
                yield job.event
                yield from net.transfer(i, "hub", 1e5 * (i + 1))
                job = cpu.use(0.5 + 0.1 * i)
                yield job.event
                log.append((i, round(env.now, 9)))

            for i in range(12):
                env.process(worker(i))
            env.run()
            return log

        assert scenario() == scenario()
