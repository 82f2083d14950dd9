"""Tests for which sub-collections PR visits.

Collection selection is the paper's broadcast: with no ids given, PR
visits every collection, one at a time; explicit ids — what
``profile_question`` and the simulated partitioners hand out — visit
exactly those.  Batched execution under that one rule must equal serial
execution in its results and retrieval counters, and leave the cache
statistics of a serial pass over the batch's distinct questions.  The
per-collection statistics a routing decision could read (document and
paragraph frequency per stem, collection sizes) must survive the
payload round trip, including the remap path under a non-prefix
vocabulary, with no extra per-collection entry in the payload.
"""

from __future__ import annotations

import pickle

import pytest

from repro.nlp.stemming import SHARED_STEM_CACHE
from repro.nlp.vocabulary import Vocabulary
from repro.qa import QAPipeline, Question, result_fingerprint
from repro.qa.paragraph_retrieval import ParagraphRetriever
from repro.retrieval.inverted_index import CollectionIndex
from repro.retrieval.packing import attach_payload, indexes_to_payload


@pytest.fixture(scope="module")
def recognizer(shared_corpus):
    from repro.nlp import EntityRecognizer

    return EntityRecognizer(
        shared_corpus.knowledge.gazetteer(),
        extra_nationalities=shared_corpus.knowledge.nationalities,
    )


@pytest.fixture(scope="module")
def workload(shared_questions):
    return [(q.qid, q.text) for q in shared_questions[:25]]


def _collection_statistics(ix: CollectionIndex):
    """Per-stem document and paragraph frequencies plus collection sizes,
    keyed by stem text so indexes under different vocabularies compare."""
    terms = dict(ix.iter_terms())
    return (
        terms,
        {stem: len(ix.paragraph_postings(stem)) for stem in terms},
        ix.stats.n_documents,
        ix.stats.n_paragraphs,
    )


# -- batch ≡ serial under the same selector ----------------------------------------


def test_batch_equals_serial_under_the_same_selector(
    shared_indexed_corpus, recognizer, workload
):
    workload = workload + workload[:8]  # repeats: answered once per batch

    def run(asked, batched: bool):
        stack = shared_indexed_corpus.reconfigured()
        pipeline = QAPipeline(stack, recognizer)
        hits, misses = SHARED_STEM_CACHE.hits, SHARED_STEM_CACHE.misses
        if batched:
            results = pipeline.answer_batch(
                [text for _, text in asked], qids=[qid for qid, _ in asked]
            )
        else:
            results = [pipeline.answer(text, qid=qid) for qid, text in asked]
        cache_stats = [r.cache_stats for r in stack.retrievers]
        # Not vacuous: the broadcast really reached every collection.
        assert all(s["misses"] > 0 for s in cache_stats)
        return (
            [result_fingerprint(r) for r in results],
            cache_stats,
            (SHARED_STEM_CACHE.hits - hits, SHARED_STEM_CACHE.misses - misses),
        )

    firsts: dict[str, tuple[int, str]] = {}
    for qid, text in workload:
        firsts.setdefault(text, (qid, text))
    # The first, discarded run leaves the process-wide stem cache holding
    # every stem the walk touches: the compared runs start equal.
    run(workload, batched=False)
    batched = run(workload, batched=True)
    assert batched[0] == run(workload, batched=False)[0]
    # The caches see a serial pass over the distinct questions.
    assert batched[1:] == run(list(firsts.values()), batched=False)[1:]


# -- the collection-ids default ----------------------------------------------------


def test_resolve_collections_explicit_ids_win(
    shared_indexed_corpus, shared_pipeline, workload
):
    pr = ParagraphRetriever(shared_indexed_corpus.reconfigured())
    assert pr.n_collections >= 3
    in_two = set(shared_indexed_corpus.indexes[2].doc_ids)
    found = 0
    for qid, text in workload[:5]:
        processed = shared_pipeline.qp.process(Question(qid=qid, text=text))
        result = pr.retrieve(processed, collection_ids=[2])
        assert [w.collection_id for w in result.per_collection] == [2]
        assert all(p.key[0] in in_two for p in result.paragraphs)
        found += len(result.paragraphs)
    assert found > 0


def test_resolve_collections_defaults_to_all_without_selector(
    shared_indexed_corpus, shared_pipeline, workload
):
    pr = ParagraphRetriever(shared_indexed_corpus.reconfigured())
    every = list(range(pr.n_collections))
    for qid, text in workload[:5]:
        processed = shared_pipeline.qp.process(Question(qid=qid, text=text))
        default = pr.retrieve(processed)
        assert [w.collection_id for w in default.per_collection] == every
        explicit = pr.retrieve(processed, collection_ids=every)
        assert [p.key for p in default.paragraphs] == [
            p.key for p in explicit.paragraphs
        ]


# -- per-collection statistics: payload round trip, remap --------------------------


def test_sketch_rides_the_payload_and_attach_prepopulates(
    shared_corpus, shared_indexed_corpus
):
    payload = indexes_to_payload(shared_indexed_corpus.indexes)
    for entry in payload["collections"]:
        assert set(entry) == {"collection_id", "buffers"}
    blob = pickle.dumps(payload)
    attached = attach_payload(shared_corpus, pickle.loads(blob))
    assert len(attached) == len(shared_indexed_corpus.indexes)
    for ix, fresh_ix in zip(attached, shared_indexed_corpus.indexes):
        assert ix.stats.n_documents > 0
        assert _collection_statistics(ix) == _collection_statistics(fresh_ix)


def test_sketch_remap_roundtrip_under_non_prefix_vocabulary(shared_corpus):
    fresh = [CollectionIndex(c) for c in shared_corpus.collections]
    payload = pickle.loads(pickle.dumps(indexes_to_payload(fresh)))
    warm = Vocabulary(["zz_unrelated", "yy_other"])  # forces the remap path
    assert not warm.matches_prefix(payload["vocab_table"])
    attached = attach_payload(shared_corpus, payload, vocabulary=warm)
    for ix, fresh_ix in zip(attached, fresh):
        assert ix.vocab is warm
        assert _collection_statistics(ix) == _collection_statistics(fresh_ix)
