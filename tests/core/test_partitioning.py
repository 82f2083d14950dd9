"""Tests for SEND / ISEND / RECV partitioning and distribution loops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    WorkerFailed,
    make_chunks,
    partition_isend,
    partition_send,
    run_receiver_controlled,
    run_sender_controlled,
)
from repro.simulation import Environment


class TestPartitionSend:
    def test_contiguous_blocks(self):
        parts = partition_send(list(range(10)), [0.5, 0.5])
        assert parts == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_weighted_sizes(self):
        parts = partition_send(list(range(10)), [0.8, 0.2])
        assert len(parts[0]) == 8
        assert len(parts[1]) == 2

    def test_all_items_exactly_once(self):
        items = list(range(17))
        parts = partition_send(items, [0.3, 0.3, 0.4])
        flat = [x for p in parts for x in p]
        assert flat == items

    def test_empty_items(self):
        assert partition_send([], [1.0, 1.0]) == [[], []]

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            partition_send([1], [])
        with pytest.raises(ValueError):
            partition_send([1], [-1.0, 2.0])
        with pytest.raises(ValueError):
            partition_send([1], [0.0, 0.0])

    @given(
        n=st.integers(min_value=0, max_value=100),
        weights=st.lists(
            st.floats(min_value=0.01, max_value=10), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_apportionment_property(self, n, weights):
        items = list(range(n))
        parts = partition_send(items, weights)
        # Partition count matches weights; all items exactly once, order kept.
        assert len(parts) == len(weights)
        assert [x for p in parts for x in p] == items
        # Each size within 1 of the exact proportional share.
        total = sum(weights)
        for part, w in zip(parts, weights):
            assert abs(len(part) - n * w / total) < 1.0 + 1e-9


class TestPartitionIsend:
    def test_interleaves_rank_ordered_items(self):
        parts = partition_isend(list(range(8)), [0.5, 0.5])
        # Each partition receives alternating items, so both carry a mix
        # of early (expensive) and late (cheap) ranks.
        assert len(parts[0]) == len(parts[1]) == 4
        assert parts[0][0] == 0
        assert parts[1][0] == 1

    def test_cost_balance_on_decaying_costs(self):
        """On rank-decaying costs, ISEND's partitions are much better
        balanced than SEND's — the Section 4.1.3 observation."""
        costs = [1.0 / (1 + i) for i in range(100)]
        weights = [0.25] * 4

        def spread(parts):
            sums = [sum(p) for p in parts]
            return max(sums) - min(sums)

        send_spread = spread(partition_send(costs, weights))
        isend_spread = spread(partition_isend(costs, weights))
        assert isend_spread < send_spread / 3

    @given(
        n=st.integers(min_value=0, max_value=80),
        weights=st.lists(
            st.floats(min_value=0.05, max_value=5), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n, weights):
        items = list(range(n))
        parts = partition_isend(items, weights)
        flat = sorted(x for p in parts for x in p)
        assert flat == items
        for part in parts:
            assert part == sorted(part)  # order preserved within partition


class TestMakeChunks:
    def test_even_split(self):
        chunks = make_chunks(list(range(8)), 4)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_remainder_extends_last_chunk(self):
        chunks = make_chunks(list(range(10)), 4)
        assert [len(c) for c in chunks] == [4, 6]

    def test_chunk_larger_than_input(self):
        chunks = make_chunks([1, 2], 10)
        assert chunks == [[1, 2]]

    def test_empty(self):
        assert make_chunks([], 5) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            make_chunks([1], 0)

    @given(
        n=st.integers(min_value=0, max_value=200),
        size=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunks_partition_input(self, n, size):
        items = list(range(n))
        chunks = make_chunks(items, size)
        assert [x for c in chunks for x in c] == items
        if n >= size:
            assert all(len(c) >= size for c in chunks)
            assert len(chunks) == n // size


class _FakeCluster:
    """Executor harness: per-node speeds and scripted failures."""

    def __init__(self, env, speeds, fail_at=None):
        self.env = env
        self.speeds = speeds
        self.fail_at = fail_at or {}  # node -> items processed before dying
        self.processed: dict[int, list] = {n: [] for n in speeds}

    def executor(self, nid, items):
        budget = self.fail_at.get(nid)
        for i, item in enumerate(items):
            if budget is not None and len(self.processed[nid]) >= budget:
                raise WorkerFailed(nid, items[i:])
            yield self.env.timeout(item / self.speeds[nid])
            self.processed[nid].append(item)


class TestSenderControlledLoop:
    def test_all_items_processed(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0})
        items = [1.0] * 10

        def main():
            yield from run_sender_controlled(
                env, items, [(0, 0.5), (1, 0.5)], cluster.executor,
                interleaved=False,
            )

        env.run(until=env.process(main()))
        assert len(cluster.processed[0]) + len(cluster.processed[1]) == 10

    def test_failure_recovery_reassigns_work(self):
        env = Environment()
        # Node 1 dies after 2 items; its remaining work must end up on 0.
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0}, fail_at={1: 2})
        items = [1.0] * 12

        def main():
            yield from run_sender_controlled(
                env, items, [(0, 0.5), (1, 0.5)], cluster.executor,
                interleaved=False,
            )

        env.run(until=env.process(main()))
        total = len(cluster.processed[0]) + len(cluster.processed[1])
        assert total == 12
        assert len(cluster.processed[1]) == 2

    def test_all_workers_dead_raises(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0}, fail_at={0: 1})

        def main():
            yield from run_sender_controlled(
                env, [1.0, 1.0, 1.0], [(0, 1.0)], cluster.executor,
                interleaved=False,
            )

        with pytest.raises(RuntimeError, match="all workers failed"):
            env.run(until=env.process(main()))

    def test_interleaved_variant_runs(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0, 1: 2.0})
        items = [float(i) for i in range(9, 0, -1)]

        def main():
            yield from run_sender_controlled(
                env, items, [(0, 0.4), (1, 0.6)], cluster.executor,
                interleaved=True,
            )

        env.run(until=env.process(main()))
        assert sorted(
            cluster.processed[0] + cluster.processed[1], reverse=True
        ) == items


class TestReceiverControlledLoop:
    def test_all_chunks_processed(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0, 2: 1.0})
        items = [1.0] * 12

        def main():
            yield from run_receiver_controlled(
                env, items, [0, 1, 2], cluster.executor, chunk_size=2
            )

        env.run(until=env.process(main()))
        total = sum(len(v) for v in cluster.processed.values())
        assert total == 12

    def test_faster_node_pulls_more_chunks(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0, 1: 4.0})
        items = [1.0] * 20

        def main():
            yield from run_receiver_controlled(
                env, items, [0, 1], cluster.executor, chunk_size=2
            )

        env.run(until=env.process(main()))
        assert len(cluster.processed[1]) > len(cluster.processed[0])

    def test_failed_node_chunk_returns_to_pool(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0, 1: 1.0}, fail_at={1: 0})
        items = [1.0] * 8

        def main():
            yield from run_receiver_controlled(
                env, items, [0, 1], cluster.executor, chunk_size=2
            )

        env.run(until=env.process(main()))
        assert len(cluster.processed[0]) == 8
        assert cluster.processed[1] == []

    def test_all_nodes_fail_raises(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0}, fail_at={0: 0})

        def main():
            yield from run_receiver_controlled(
                env, [1.0, 1.0], [0], cluster.executor, chunk_size=1
            )

        with pytest.raises(RuntimeError, match="all workers failed"):
            env.run(until=env.process(main()))

    def test_no_workers_rejected(self):
        env = Environment()

        def main():
            yield from run_receiver_controlled(
                env, [1.0], [], lambda n, i: iter(()), chunk_size=1
            )

        with pytest.raises(ValueError):
            env.run(until=env.process(main()))

    def test_empty_items_noop(self):
        env = Environment()
        cluster = _FakeCluster(env, {0: 1.0})

        def main():
            result = yield from run_receiver_controlled(
                env, [], [0], cluster.executor, chunk_size=5
            )
            return result

        assert env.run(until=env.process(main())) == []


class _CountingEnv(Environment):
    """An environment that records the name of every process it starts."""

    __slots__ = ("started",)

    def __init__(self) -> None:
        super().__init__()
        self.started: list[str] = []

    def process(self, generator, name=None):
        proc = super().process(generator, name)
        self.started.append(proc.name)
        return proc


def _pull_on_every_node(env, items, node_ids, executor, chunk_size):
    """The RECV loop as it was written first: every round starts a puller
    on every pool node, and pullers past the chunk count exit empty."""
    available = list(reversed(make_chunks(items, chunk_size)))
    results, pool = [], list(node_ids)

    def puller(nid):
        while available:
            chunk = available.pop()
            try:
                outcome = yield env.process(executor(nid, chunk))
            except WorkerFailed as failure:
                available.append(failure.unprocessed)
                return nid
            results.append(outcome)
        return None

    while available:
        if not pool:
            raise RuntimeError("all workers failed")
        procs = [env.process(puller(nid)) for nid in pool]
        done = yield env.all_of(procs)
        failed = {done[p] for p in procs if done[p] is not None}
        pool = [nid for nid in pool if nid not in failed]
    return results


def _recv_run(loop, env_cls, items, node_ids, speeds, fail_after, chunk_size):
    """Run one RECV loop; return (env, chunk starts, results, end time).

    Node ``n`` takes ``item / speeds[n]`` per item and dies once it has
    processed ``fail_after[n]`` items (if listed)."""
    env = env_cls()
    starts: list[tuple[int, tuple]] = []
    processed = dict.fromkeys(node_ids, 0)

    def executor(nid, chunk):
        starts.append((nid, tuple(chunk)))
        for i, item in enumerate(chunk):
            if nid in fail_after and processed[nid] >= fail_after[nid]:
                raise WorkerFailed(nid, chunk[i:])
            yield env.timeout(item / speeds[nid])
            processed[nid] += 1
        return (nid, tuple(chunk), env.now)

    def main():
        return (yield from loop(env, items, node_ids, executor, chunk_size))

    results = env.run(until=env.process(main()))
    return env, starts, results, env.now


class TestReceiverControlledPullers:
    def test_one_puller_per_chunk(self):
        # 3 chunks on 8 nodes: only the first three pool nodes pull.
        env, starts, results, _ = _recv_run(
            run_receiver_controlled, _CountingEnv, [1.0] * 6,
            [7, 2, 5, 0, 1, 3, 4, 6], dict.fromkeys(range(8), 1.0), {}, 2,
        )
        pullers = [n for n in env.started if n.startswith("chunk-puller")]
        assert pullers == ["chunk-puller[7]", "chunk-puller[2]", "chunk-puller[5]"]
        assert [nid for nid, _ in starts] == [7, 2, 5]
        assert len(results) == 3

    def test_more_chunks_than_nodes_starts_every_node(self):
        env, _, results, _ = _recv_run(
            run_receiver_controlled, _CountingEnv, [1.0] * 10, [0, 1, 2],
            dict.fromkeys(range(3), 1.0), {}, 2,
        )
        assert sum(n.startswith("chunk-puller") for n in env.started) == 3
        assert len(results) == 5

    def test_repull_round_starts_from_surviving_pool_in_order(self):
        # Nodes 3 and 7 die one item into their chunk, after 5 and 1 have
        # drained the chunk set and exited; the two returned remainders
        # are re-pulled by the first two survivors in pool order, 5 and 1
        # (9 never pulled anything).
        pool = [5, 3, 7, 1, 9]
        speeds = {5: 4.0, 3: 0.5, 7: 0.5, 1: 4.0, 9: 1.0}
        env, starts, results, _ = _recv_run(
            run_receiver_controlled, _CountingEnv, [1.0] * 8, pool, speeds,
            {3: 1, 7: 1}, 2,
        )
        pullers = [n for n in env.started if n.startswith("chunk-puller")]
        assert pullers == [f"chunk-puller[{n}]" for n in (5, 3, 7, 1, 5, 1)]
        assert [nid for nid, _ in starts] == [5, 3, 7, 1, 5, 1]
        assert sorted(len(chunk) for _, chunk, _ in results) == [1, 1, 2, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        n_items=st.integers(0, 24),
        chunk_size=st.integers(1, 5),
        speeds=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=9),
        fail_after=st.dictionaries(st.integers(0, 8), st.integers(0, 4), max_size=3),
        order_seed=st.randoms(use_true_random=False),
    )
    def test_same_assignment_and_completion_order_as_every_node_pulling(
        self, n_items, chunk_size, speeds, fail_after, order_seed
    ):
        items = [float(1 + i % 3) for i in range(n_items)]
        node_ids = list(range(len(speeds)))
        order_seed.shuffle(node_ids)
        speeds = dict(enumerate(speeds))
        fail_after = {n: k for n, k in fail_after.items() if n in speeds}
        runs = []
        for loop in (run_receiver_controlled, _pull_on_every_node):
            try:
                runs.append(
                    _recv_run(loop, Environment, items, node_ids, speeds,
                              fail_after, chunk_size)[1:]
                )
            except RuntimeError as exc:  # every worker failed
                runs.append(("all workers failed" in str(exc),))
        assert runs[0] == runs[1]

