"""Batched execution must give serial execution's results.

``QAPipeline.answer_batch`` runs ``answer`` once per distinct question
text and hands a repeat its first occurrence's result under its own
qid.  The contract: answers, paragraph ranks and work counters equal
``[pipeline.answer(q) for q in batch]``, and the stem-memo/stem cache
statistics afterwards equal a serial pass over ``dict.fromkeys(batch)``
— the distinct questions, in first-occurrence order — run from the same
starting state.  The Hypothesis properties drive random batches
(repeats included) through both paths on fresh retriever stacks; the
regression tests pin the sharing accounting.
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
    warm = QAPipeline(shared_indexed_corpus.reconfigured(), recognizer)
    for text in pool:
        warm.answer(text)
    return shared_indexed_corpus, recognizer, pool


def _fresh(indexed, recognizer):
    return QAPipeline(indexed.reconfigured(), recognizer)


def _cache_counters(pipeline, ask):
    """Stem-cache deltas and stem-memo stats of ``ask(pipeline)``."""
    h0, m0 = SHARED_STEM_CACHE.hits, SHARED_STEM_CACHE.misses
    results = ask(pipeline)
    stems = (SHARED_STEM_CACHE.hits - h0, SHARED_STEM_CACHE.misses - m0)
    return results, stems, [r.cache_stats for r in pipeline.indexed.retrievers]


def _assert_batch_matches_serial(stack, batch):
    indexed, recognizer, _ = stack
    expected = [
        result_fingerprint(r) for r in map(_fresh(indexed, recognizer).answer, batch)
    ]
    _, *serial = _cache_counters(
        _fresh(indexed, recognizer),
        lambda p: [p.answer(q) for q in dict.fromkeys(batch)],
    )
    results, *batched = _cache_counters(
        _fresh(indexed, recognizer), lambda p: p.answer_batch(batch)
    )
    assert [result_fingerprint(r) for r in results] == expected
    assert batched == serial


class TestBatchProperty:
    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.integers(0, 7), min_size=1, max_size=10))
    def test_answer_batch_matches_serial(self, stack, picks):
        """Random batches — repeats likely — fingerprint-match serial, and
        leave the caches of a serial pass over their distinct questions."""
        _, _, pool = stack
        _assert_batch_matches_serial(stack, [pool[i] for i in picks])

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

    def test_cache_stats_match_the_distinct_question_pass(self, stack):
        """Serial re-execution would hit the memo again for a repeat; the
        batch asks the repeat nothing, like the distinct-question pass."""
        _, _, pool = stack
        workload = [pool[0], pool[1], pool[2], pool[0], pool[3], pool[0]]
        _assert_batch_matches_serial(stack, workload)

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
        # Repeats carry the same logical work charge as serial runs.
        serial = _fresh(indexed, recognizer)
        assert [r.work["retrieval.postings_scanned"] for r in results] == [
            serial.answer(q).work["retrieval.postings_scanned"] for q in workload
        ]

    def test_batch_metrics_recorded(self, stack):
        """A repeat reuses its first result, with zero module timings:
        nothing ran for it."""
        indexed, recognizer, pool = stack
        pipeline = _fresh(indexed, recognizer)
        first, repeat, other = pipeline.answer_batch([pool[0], pool[0], pool[1]])
        stats = pipeline.last_batch_stats
        assert (stats.n_questions, stats.n_distinct) == (3, 2)
        assert stats.sharing_factor == pytest.approx(1.5)
        assert first.timings.total > 0 and other.timings.total > 0
        assert repeat.timings.total == 0.0
        assert repeat.answers == first.answers
        assert repeat.answers is not first.answers
        assert repeat.work == first.work and repeat.work is not first.work

    def test_qids_propagate(self, stack):
        indexed, recognizer, pool = stack
        pipeline = _fresh(indexed, recognizer)
        results = pipeline.answer_batch(
            [pool[0], pool[0]], qids=[17, 23]
        )
        assert [r.processed.question.qid for r in results] == [17, 23]
