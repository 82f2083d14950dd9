"""Batched execution (PR 7) must be bit-identical to serial execution.

``QAPipeline.answer_batch`` amortizes work across a batch — duplicate
questions replay their first execution, posting fetches are shared
through a batch-scoped map, PS/AP keyword ids resolve once per question
— but the contract is strict equivalence: answers, paragraph ranks,
work counters, *and* the conjunction/stem cache statistics afterwards
must equal ``[pipeline.answer(q) for q in batch]`` run from the same
starting state.  The Hypothesis properties drive random batches
(duplicates included) through both paths on fresh retriever stacks; the
regression tests pin the cache-statistics replay and the sharing
accounting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import EntityRecognizer
from repro.nlp.stemming import SHARED_STEM_CACHE
from repro.qa import QAPipeline, result_fingerprint


@pytest.fixture(scope="module")
def stack(shared_corpus, shared_indexed_corpus, shared_questions):
    """Recognizer + question pool; pipelines are built fresh per test."""
    recognizer = EntityRecognizer(
        shared_corpus.knowledge.gazetteer(),
        extra_nationalities=shared_corpus.knowledge.nationalities,
    )
    pool = [q.text for q in shared_questions[:8]]
    # Warm the (global) shared stem cache with every pool question once,
    # so serial and batched runs below start from the same cache state.
    warm = QAPipeline(
        shared_indexed_corpus.reconfigured(conjunction_cache=64),
        recognizer,
    )
    for text in pool:
        warm.answer(text)
    return shared_indexed_corpus, recognizer, pool


def _fresh(indexed, recognizer, cache=64):
    return QAPipeline(indexed.reconfigured(conjunction_cache=cache), recognizer)


def _stem_counters() -> tuple[int, int]:
    return SHARED_STEM_CACHE.hits, SHARED_STEM_CACHE.misses


class TestBatchProperty:
    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.integers(0, 7), min_size=1, max_size=10))
    def test_answer_batch_matches_serial(self, stack, picks):
        """Random batches — duplicates likely — fingerprint-match serial."""
        indexed, recognizer, pool = stack
        batch = [pool[i] for i in picks]

        serial = _fresh(indexed, recognizer)
        h0, m0 = _stem_counters()
        expected = [result_fingerprint(serial.answer(q)) for q in batch]
        serial_stems = (
            SHARED_STEM_CACHE.hits - h0,
            SHARED_STEM_CACHE.misses - m0,
        )

        batched = _fresh(indexed, recognizer)
        h0, m0 = _stem_counters()
        results = batched.answer_batch(batch)
        batched_stems = (
            SHARED_STEM_CACHE.hits - h0,
            SHARED_STEM_CACHE.misses - m0,
        )

        assert [result_fingerprint(r) for r in results] == expected
        assert batched_stems == serial_stems
        assert [
            r.cache_stats for r in serial.indexed.retrievers
        ] == [r.cache_stats for r in batched.indexed.retrievers]

    @settings(max_examples=10, deadline=None)
    @given(i=st.integers(0, 7))
    def test_batch_of_one_matches_serial(self, stack, i):
        indexed, recognizer, pool = stack
        serial = _fresh(indexed, recognizer)
        expected = result_fingerprint(serial.answer(pool[i]))
        batched = _fresh(indexed, recognizer)
        [result] = batched.answer_batch([pool[i]])
        assert result_fingerprint(result) == expected
        assert batched.last_batch_stats.n_questions == 1
        assert batched.last_batch_stats.n_distinct == 1


class TestBatchRegression:
    def test_empty_batch(self, stack):
        indexed, recognizer, _ = stack
        pipeline = _fresh(indexed, recognizer)
        assert pipeline.answer_batch([]) == []
        assert pipeline.last_batch_stats.n_questions == 0

    def test_cache_stats_survive_eviction_pressure(self, stack):
        """Replay must equal serial even when the conjunction LRU evicts.

        A capacity-2 cache forces evictions between the duplicate's first
        execution and its replay; the replay recomputes evicted entries
        exactly as serial re-execution would, so hit/miss counters match.
        """
        indexed, recognizer, pool = stack
        workload = [pool[0], pool[1], pool[2], pool[0], pool[3], pool[0]]

        serial = _fresh(indexed, recognizer, cache=2)
        h0, m0 = _stem_counters()
        expected = [result_fingerprint(serial.answer(q)) for q in workload]
        serial_stems = (
            SHARED_STEM_CACHE.hits - h0,
            SHARED_STEM_CACHE.misses - m0,
        )

        batched = _fresh(indexed, recognizer, cache=2)
        h0, m0 = _stem_counters()
        results = batched.answer_batch(workload)
        batched_stems = (
            SHARED_STEM_CACHE.hits - h0,
            SHARED_STEM_CACHE.misses - m0,
        )

        assert [result_fingerprint(r) for r in results] == expected
        assert batched_stems == serial_stems
        assert [
            r.cache_stats for r in serial.indexed.retrievers
        ] == [r.cache_stats for r in batched.indexed.retrievers]

    def test_sharing_stats_account_duplicates(self, stack):
        indexed, recognizer, pool = stack
        workload = [pool[0]] * 3 + [pool[1]] * 2 + [pool[2]]
        pipeline = _fresh(indexed, recognizer)
        results = pipeline.answer_batch(workload)
        stats = pipeline.last_batch_stats
        assert len(results) == 6
        assert stats.n_questions == 6
        assert stats.n_distinct == 3
        assert stats.sharing_factor == pytest.approx(2.0)
        # Duplicates carry the same logical work charge as serial runs,
        # so the amortized charge is below the per-question mean of the
        # distinct executions only through batching of *fetches*; the
        # scanned total itself equals the serial total.
        serial = _fresh(indexed, recognizer)
        serial_scanned = sum(
            serial.answer(q).work["retrieval.postings_scanned"]
            for q in workload
        )
        assert stats.postings_scanned == pytest.approx(serial_scanned)
        assert stats.postings_fetches > 0
        assert stats.postings_shared > 0

    def test_batch_metrics_recorded(self, stack):
        indexed, recognizer, pool = stack
        pipeline = _fresh(indexed, recognizer)
        pipeline.answer_batch([pool[0], pool[0], pool[1]])
        stats = pipeline.last_batch_stats
        assert stats.n_questions == 3
        assert stats.postings_shared > 0

    def test_qids_propagate(self, stack):
        indexed, recognizer, pool = stack
        pipeline = _fresh(indexed, recognizer)
        results = pipeline.answer_batch(
            [pool[0], pool[0]], qids=[17, 23]
        )
        assert [r.processed.question.qid for r in results] == [17, 23]
