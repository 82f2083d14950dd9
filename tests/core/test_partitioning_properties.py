"""Property-based invariant tests for the pure partitioning functions.

Complements tests/core/test_partitioning.py: instead of hand-picked
examples, these drive ``partition_send`` / ``partition_isend`` /
``make_chunks`` / ``_apportion`` through hundreds of generated cases from
a seeded stdlib ``random.Random`` — item counts, weight vectors
(including zero weights) and chunk sizes — and assert the contracts the
distribution loops rely on:

* every item lands in exactly one partition (no loss, no duplication);
* partition sizes are within 1 of the exact proportional share;
* zero-weight processors receive nothing;
* the last chunk absorbs the remainder (no short tail chunk).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_chunks, partition_isend, partition_send
from repro.core.partitioning import _apportion

CASES_PER_SEED = 25


def _random_weights(rng, max_len=8, allow_zero=True):
    k = rng.randint(1, max_len)
    weights = [
        0.0 if (allow_zero and rng.random() < 0.25) else rng.uniform(0.01, 10.0)
        for _ in range(k)
    ]
    if sum(weights) <= 0:  # at least one processor must have capacity
        weights[rng.randrange(k)] = rng.uniform(0.1, 1.0)
    return weights


def _cases(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        n = rng.randint(0, 200)
        yield list(range(n)), _random_weights(rng), rng


@pytest.mark.parametrize("seed", range(10))
class TestSendInvariants:
    def test_exactly_once_and_order(self, seed):
        for items, weights, _ in _cases(seed):
            parts = partition_send(items, weights)
            assert len(parts) == len(weights)
            assert [x for p in parts for x in p] == items

    def test_sizes_within_one_of_share(self, seed):
        for items, weights, _ in _cases(seed):
            parts = partition_send(items, weights)
            total = sum(weights)
            for part, w in zip(parts, weights):
                share = len(items) * w / total
                assert abs(len(part) - share) < 1.0 + 1e-9

    def test_zero_weight_gets_nothing(self, seed):
        for items, weights, _ in _cases(seed):
            parts = partition_send(items, weights)
            for part, w in zip(parts, weights):
                if w == 0.0:
                    assert part == []


@pytest.mark.parametrize("seed", range(10))
class TestIsendInvariants:
    def test_exactly_once_no_duplication(self, seed):
        for items, weights, _ in _cases(seed):
            parts = partition_isend(items, weights)
            assert len(parts) == len(weights)
            assert sorted(x for p in parts for x in p) == items

    def test_order_preserved_within_partition(self, seed):
        for items, weights, _ in _cases(seed):
            for part in partition_isend(items, weights):
                assert part == sorted(part)

    def test_sizes_match_send_apportionment(self, seed):
        # ISEND deals different items but must grant identical sizes.
        for items, weights, _ in _cases(seed):
            isend_sizes = [len(p) for p in partition_isend(items, weights)]
            send_sizes = [len(p) for p in partition_send(items, weights)]
            assert isend_sizes == send_sizes

    def test_interleaving_spreads_ranks(self, seed):
        # With equal positive weights and plenty of items, no partition
        # may hoard a contiguous prefix: ISEND's entire point is that
        # early (expensive) ranks are dealt round-robin.
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            k = rng.randint(2, 6)
            n = k * rng.randint(3, 30)
            parts = partition_isend(list(range(n)), [1.0] * k)
            firsts = sorted(p[0] for p in parts)
            assert firsts == list(range(k))


def isend_by_scan(items, weights):
    """ISEND's weighted round-robin deal as a scan over every candidate
    per item (O(n k)): the oracle for ``partition_isend``'s heap."""
    sizes = _apportion(len(items), weights)
    out = [[] for _ in weights]
    remaining = list(sizes)
    for item in items:
        candidates = [k for k in range(len(weights)) if remaining[k] > 0]
        k = min(
            candidates,
            key=lambda j: (len(out[j]) / sizes[j] if sizes[j] else 1.0, j),
        )
        out[k].append(item)
        remaining[k] -= 1
    return out


_weights = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from([1.0, 2.0, 0.5, 1.0 / 3.0]),
    ),
    min_size=1,
    max_size=16,
).filter(lambda ws: sum(ws) > 0)


@given(n=st.integers(min_value=0, max_value=1000), weights=_weights)
@settings(max_examples=300, deadline=None)
def test_isend_heap_deals_as_the_scan(n, weights):
    items = list(range(n))
    assert partition_isend(items, weights) == isend_by_scan(items, weights)


@pytest.mark.parametrize("seed", range(10))
class TestChunkInvariants:
    def test_concatenation_is_input(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            n, size = rng.randint(0, 300), rng.randint(1, 60)
            items = list(range(n))
            chunks = make_chunks(items, size)
            assert [x for c in chunks for x in c] == items

    def test_last_chunk_absorbs_remainder(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            n, size = rng.randint(1, 300), rng.randint(1, 60)
            chunks = make_chunks(list(range(n)), size)
            if n < size:
                assert len(chunks) == 1 and len(chunks[0]) == n
                continue
            assert len(chunks) == n // size
            assert all(len(c) == size for c in chunks[:-1])
            assert len(chunks[-1]) == size + n % size

    def test_chunk_count_never_exceeds_items(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            n, size = rng.randint(0, 300), rng.randint(1, 60)
            chunks = make_chunks(list(range(n)), size)
            assert len(chunks) <= max(n, 1)
            assert all(c for c in chunks) or n == 0


@pytest.mark.parametrize("seed", range(10))
class TestApportionInvariants:
    def test_sums_to_n_and_non_negative(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            n = rng.randint(0, 500)
            weights = _random_weights(rng)
            sizes = _apportion(n, weights)
            assert sum(sizes) == n
            assert all(s >= 0 for s in sizes)

    def test_within_one_of_quota(self, seed):
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            n = rng.randint(0, 500)
            weights = _random_weights(rng)
            sizes = _apportion(n, weights)
            total = sum(weights)
            for s, w in zip(sizes, weights):
                assert abs(s - n * w / total) < 1.0 + 1e-9

    def test_monotone_in_n(self, seed):
        # Adding one more item never shrinks anyone's partition by > 1;
        # total grows by exactly 1 (no item teleportation).
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            n = rng.randint(0, 200)
            weights = _random_weights(rng)
            before = _apportion(n, weights)
            after = _apportion(n + 1, weights)
            assert sum(after) - sum(before) == 1
            assert all(b - a <= 1 for a, b in zip(after, before))
