"""Tests for federated collection selection (repro.retrieval.selection).

The selector may lose recall, never questions: empty selections fall
back to exhaustive.  Batched execution under a selector must equal serial
execution under the same selector — results, ``retrieval.selector.*``
counters and cache statistics.  The sketch itself must survive the v2
payload round trip, including the remap path under a non-prefix
vocabulary.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.corpus.generator import Document, SubCollection
from repro.nlp.stemming import SHARED_STEM_CACHE
from repro.nlp.vocabulary import Vocabulary
from repro.observability.metrics import MetricsRegistry
from repro.observability.names import SELECTOR_PRUNED
from repro.qa import QAPipeline, Question, result_fingerprint
from repro.qa.paragraph_retrieval import resolve_collections
from repro.retrieval.inverted_index import CollectionIndex
from repro.retrieval.packing import attach_payload, indexes_to_payload
from repro.retrieval.selection import (
    CollectionSelector,
    CollectionSketch,
    build_sketch,
    sketch_of,
)


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


# -- batch ≡ serial under the same selector ----------------------------------------


def test_batch_equals_serial_under_the_same_selector(
    shared_indexed_corpus, recognizer, workload
):
    workload = workload + workload[:8]  # duplicates exercise the replay path
    texts = [text for _, text in workload]
    qids = [qid for qid, _ in workload]

    def run(batched: bool):
        stack = shared_indexed_corpus.reconfigured()
        metrics = MetricsRegistry()
        pipeline = QAPipeline(
            stack, recognizer, metrics=metrics, selector=stack.selector(top_k=2)
        )
        hits, misses = SHARED_STEM_CACHE.hits, SHARED_STEM_CACHE.misses
        if batched:
            results = pipeline.answer_batch(texts, qids=qids)
        else:
            results = [pipeline.answer(text, qid=qid) for qid, text in workload]
        # Not vacuous: the selector really pruned part of the fan-out.
        assert metrics.value(SELECTOR_PRUNED) > 0
        return (
            [result_fingerprint(r) for r in results],
            {
                name: m
                for name, m in metrics.to_dict().items()
                if name.startswith("retrieval.selector.")
            },
            [r.cache_stats for r in stack.retrievers],
            (SHARED_STEM_CACHE.hits - hits, SHARED_STEM_CACHE.misses - misses),
        )

    # The first, discarded run leaves the process-wide stem cache holding
    # every stem the routed walk touches: the compared runs start equal.
    run(batched=False)
    assert run(batched=True) == run(batched=False)


# -- routing decisions -------------------------------------------------------------


def test_predictive_zero_hit_falls_back_to_exhaustive(shared_indexed_corpus):
    from repro.nlp.keywords import Keyword

    selector = shared_indexed_corpus.selector(top_k=2)
    ghost = Keyword(
        text="xyzzyplugh", stems=("xyzzyplugh",), priority=0, is_phrase=False
    )
    decision = selector.select([ghost])
    assert decision.fallback
    assert decision.selected == tuple(
        range(shared_indexed_corpus.n_collections)
    )
    assert decision.pruned == ()


def test_predictive_top_k_bounds_the_fanout(
    shared_indexed_corpus, shared_pipeline, workload
):
    selector = shared_indexed_corpus.selector(top_k=1)
    for qid, text in workload:
        processed = shared_pipeline.qp.process(Question(qid=qid, text=text))
        decision = selector.select(list(processed.keywords))
        if decision.fallback:
            continue
        assert len(decision.selected) <= 1


def test_selector_validates_inputs(shared_indexed_corpus):
    with pytest.raises(ValueError, match="top_k"):
        shared_indexed_corpus.selector(top_k=0)
    with pytest.raises(ValueError, match="threshold"):
        shared_indexed_corpus.selector(threshold=1.5)


# -- sketches: empty collections, payload round trip, remap ------------------------


def test_empty_subcollection_sketch_prunes_everywhere():
    docs = [
        Document(
            doc_id=0, collection_id=0, title="d0",
            text="alpha beta gamma recall",
        )
    ]
    full = CollectionIndex(SubCollection(collection_id=0, documents=docs))
    vocab = full.vocab
    empty = CollectionIndex(
        SubCollection(collection_id=1, documents=[]), vocabulary=vocab
    )
    sk = build_sketch(empty)
    assert len(sk) == 0 and sk.n_documents == 0 and sk.n_paragraphs == 0

    from repro.nlp.keywords import Keyword
    from repro.nlp.stemming import cached_stem

    kw = Keyword(
        text="alpha", stems=(cached_stem("alpha"),), priority=0, is_phrase=False
    )
    # Nothing can match an empty collection.
    p = CollectionSelector([build_sketch(full), sk], vocab).select([kw])
    assert p.selected == (0,) and p.pruned == (1,)


def test_sketch_rides_the_payload_and_attach_prepopulates(
    shared_corpus, shared_indexed_corpus
):
    payload = indexes_to_payload(shared_indexed_corpus.indexes)
    for entry in payload["collections"]:
        assert "sketch" in entry
    blob = pickle.dumps(payload)
    attached = attach_payload(shared_corpus, pickle.loads(blob))
    for ix, fresh_ix in zip(attached, shared_indexed_corpus.indexes):
        pre = ix._sketch
        assert pre is not None  # attach populated it, no lazy build needed
        ref = sketch_of(fresh_ix)
        assert pre.stem_ids == ref.stem_ids
        assert pre.dfs == ref.dfs
        assert pre.pfs == ref.pfs
        assert pre.n_documents == ref.n_documents
        assert pre.n_paragraphs == ref.n_paragraphs


def test_sketch_remap_roundtrip_under_non_prefix_vocabulary(shared_corpus):
    fresh = [CollectionIndex(c) for c in shared_corpus.collections]
    payload = pickle.loads(pickle.dumps(indexes_to_payload(fresh)))
    warm = Vocabulary(["zz_unrelated", "yy_other"])  # forces the remap path
    assert not warm.matches_prefix(payload["vocab_table"])
    attached = attach_payload(shared_corpus, payload, vocabulary=warm)
    for ix in attached:
        remapped = ix._sketch
        assert remapped is not None
        ix._sketch = None  # force a fresh derivation under the new vocab
        rebuilt = build_sketch(ix)
        assert remapped.stem_ids == rebuilt.stem_ids
        assert remapped.dfs == rebuilt.dfs
        assert remapped.pfs == rebuilt.pfs


def test_sketch_remapped_resorts_parallel_arrays():
    sk = CollectionSketch(
        collection_id=0,
        stem_ids=array("i", [0, 1, 2]),
        dfs=array("I", [10, 20, 30]),
        pfs=array("I", [1, 2, 3]),
        n_documents=4,
        n_paragraphs=9,
    )
    # Reverse the numbering: old id 0 -> 7, 1 -> 5, 2 -> 3.
    out = sk.remapped([7, 5, 3])
    assert list(out.stem_ids) == [3, 5, 7]
    assert list(out.dfs) == [30, 20, 10]
    assert list(out.pfs) == [3, 2, 1]
    assert out.df_by_id(7) == 10 and out.pf_by_id(3) == 3


# -- the shared collection-ids defaulting helper -----------------------------------


def test_resolve_collections_explicit_ids_win(shared_indexed_corpus):
    selector = shared_indexed_corpus.selector()
    ids, decision = resolve_collections(3, [2], selector=selector, keywords=[])
    assert ids == [2] and decision is None


def test_resolve_collections_defaults_to_all_without_selector():
    ids, decision = resolve_collections(4, None)
    assert ids == [0, 1, 2, 3] and decision is None
