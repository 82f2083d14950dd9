"""AP's per-paragraph entity layer must be a pure optimization.

The first visit to a paragraph runs the recognizer and keeps its spans;
later questions filter the kept spans by answer type.  Whatever the
layer holds when a question arrives — nothing, a few paragraphs, the
whole corpus — the question must come out exactly as from a fresh
pipeline and from the ``use_term_index=False`` oracle, which re-tokenizes
and re-recognizes every paragraph: same answers, scores, ``short`` /
``long`` clips, paragraph ranks and work counters, and the same touches
on the stem and conjunction caches.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import EntityRecognizer, EntityType
from repro.nlp.stemming import SHARED_STEM_CACHE
from repro.qa import QAPipeline, result_fingerprint
from repro.qa.answer_processing import AnswerProcessor
from repro.qa.question import ProcessedQuestion, Question

_POOL = 10


@pytest.fixture(scope="module")
def stack(shared_corpus, shared_indexed_corpus, shared_questions):
    """Recognizer, question pool and the two references per question."""
    recognizer = EntityRecognizer(
        shared_corpus.knowledge.gazetteer(),
        extra_nationalities=shared_corpus.knowledge.nationalities,
    )
    pool = [q.text for q in shared_questions[:_POOL]]
    oracle = QAPipeline(
        shared_indexed_corpus.reconfigured(), recognizer, use_term_index=False
    )
    expected = {}
    for text in pool:
        fresh = result_fingerprint(_fresh(shared_indexed_corpus, recognizer).answer(text))
        assert fresh == result_fingerprint(oracle.answer(text))
        expected[text] = fresh
    return shared_indexed_corpus, recognizer, pool, expected


def _fresh(indexed, recognizer):
    return QAPipeline(indexed.reconfigured(), recognizer)


def _all_paragraphs(indexed):
    return [
        para
        for index in indexed.indexes
        for doc in index.doc_ids
        for para, _ in index.paragraphs_of(doc)
    ]


def _asks_for(atype):
    """A question of type ``atype`` with no keywords of its own."""
    return ProcessedQuestion(
        question=Question(qid=0, text="?"), answer_type=atype, keywords=()
    )


def _cache_touches(pipeline, workload):
    """(stem hits, stem misses, per-collection conjunction stats) of a run."""
    h0, m0 = SHARED_STEM_CACHE.hits, SHARED_STEM_CACHE.misses
    for text in workload:
        pipeline.answer(text)
    return (
        SHARED_STEM_CACHE.hits - h0,
        SHARED_STEM_CACHE.misses - m0,
        [r.cache_stats for r in pipeline.indexed.retrievers],
    )


class TestLayerIsInvisible:
    @settings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(st.integers(0, _POOL - 1), min_size=1, max_size=12),
        chunk=st.integers(1, 5),
    )
    def test_any_order_serial_and_batched_match_fresh_and_oracle(
        self, stack, picks, chunk
    ):
        """One long-lived pipeline, random order, duplicates likely."""
        indexed, recognizer, pool, expected = stack
        stream = [pool[i] for i in picks]
        want = [expected[text] for text in stream]

        serial = _fresh(indexed, recognizer)
        assert [result_fingerprint(serial.answer(text)) for text in stream] == want
        # Again, batched, over the layer the serial pass left behind...
        got = []
        for i in range(0, len(stream), chunk):
            got += serial.answer_batch(stream[i : i + chunk])
        assert [result_fingerprint(r) for r in got] == want
        # ...and batched from cold (KeywordIdResolver + a filling layer).
        batched = _fresh(indexed, recognizer)
        got = []
        for i in range(0, len(stream), chunk):
            got += batched.answer_batch(stream[i : i + chunk])
        assert [result_fingerprint(r) for r in got] == want

        stats = serial.ap.entity_layer_stats
        assert stats["misses"] == stats["paragraphs"]
        assert stats["paragraphs"] <= indexed.total_stats()["n_paragraphs"]

    def test_full_layer_leaves_stem_and_conjunction_caches_alone(self, stack):
        """A cold layer and one holding the whole corpus touch the stem
        and conjunction caches alike, and a full layer stops growing."""
        indexed, recognizer, pool, _ = stack
        paragraphs = _all_paragraphs(indexed)
        n_paragraphs = indexed.total_stats()["n_paragraphs"]
        assert len(paragraphs) == n_paragraphs

        cold = _cache_touches(_fresh(indexed, recognizer), pool)

        full = _fresh(indexed, recognizer)
        for _ in range(2):
            for para in paragraphs:
                full.ap.candidates(_asks_for(EntityType.UNKNOWN), para)
        assert full.ap.entity_layer_stats == {
            "hits": n_paragraphs,
            "misses": n_paragraphs,
            "paragraphs": n_paragraphs,
        }
        assert _cache_touches(full, pool) == cold
        after = full.ap.entity_layer_stats
        assert (after["misses"], after["paragraphs"]) == (
            n_paragraphs,
            n_paragraphs,
        )
        assert after["hits"] > n_paragraphs


def test_processors_sharing_an_index_keep_their_own_spans(stack):
    """Spans depend on the gazetteer, so the layer belongs to the
    processor: two of them over one IndexedCorpus, visiting the same
    paragraphs in turn, each see only their own recognizer's entities."""
    indexed, recognizer, _, _ = stack
    bare = EntityRecognizer()
    anything = _asks_for(EntityType.UNKNOWN)
    layered = [
        AnswerProcessor(r, term_lookup=indexed.term_lookup)
        for r in (recognizer, bare)
    ]
    references = [AnswerProcessor(r) for r in (recognizer, bare)]
    differing = 0
    for n, para in enumerate(_all_paragraphs(indexed)[:120]):
        # Alternate who touches the paragraph first; ask twice, so the
        # second answer comes from the layer.
        for k in ((0, 1), (1, 0))[n % 2]:
            want = references[k].candidates(anything, para)
            assert layered[k].candidates(anything, para) == want
            assert layered[k].candidates(anything, para) == want
        differing += references[0].candidates(
            anything, para
        ) != references[1].candidates(anything, para)
    assert differing > 0
