"""Equivalence of the precomputed-term fast path vs the naive reference.

The materialized paragraph term layer must be a pure optimization: PS
ranks, AP answer spans and the Boolean engine's cost accounting have to be
byte-identical whether paragraphs are re-tokenized per question (the seed
implementation) or resolved through the index's precomputed
:class:`ParagraphTerms`.  These property tests drive both paths over
randomized corpora and randomized keyword sets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import generate_questions
from repro.corpus.generator import (
    CorpusConfig,
    Document,
    SubCollection,
    generate_corpus,
)
from repro.nlp.entities import EntityRecognizer, EntityType
from repro.nlp.keywords import Keyword
from repro.nlp.stemming import cached_stem
from repro.qa.answer_processing import AnswerProcessor
from repro.qa.paragraph_scoring import (
    KeywordIdResolver,
    ParagraphScorer,
    keyword_positions,
    keyword_positions_from_ids,
)
from repro.qa.pipeline import QAPipeline
from repro.qa.question import ProcessedQuestion, Question
from repro.retrieval.inverted_index import CollectionIndex

# Vocabulary engineered to exercise stemming collisions ("run"/"running"),
# stopwords, capitalization, numbers/percent/money tokens and punctuation.
_VOCAB = [
    "run", "running", "runs", "runner", "question", "questions", "answer",
    "system", "systems", "distributed", "Boston", "Einstein", "Texas",
    "the", "of", "and", "in", "was", "1999", "12%", "$400", "born",
    "capital", "city", "located", ",", ".", "famous", "physicist",
]

_words = st.lists(st.sampled_from(_VOCAB), min_size=4, max_size=40)
_paragraph = _words.map(lambda ws: " ".join(ws))
_doc_paragraphs = st.lists(_paragraph, min_size=1, max_size=4)


def _make_index(doc_paragraphs: list[list[str]]) -> CollectionIndex:
    docs = [
        Document(
            doc_id=i,
            collection_id=0,
            title=f"doc {i}",
            text="\n\n".join(paras),
        )
        for i, paras in enumerate(doc_paragraphs)
    ]
    return CollectionIndex(SubCollection(collection_id=0, documents=docs))


def _make_keywords(kw_specs: list[list[str]]) -> list[Keyword]:
    out = []
    for prio, words in enumerate(kw_specs):
        out.append(
            Keyword(
                text=" ".join(words),
                stems=tuple(cached_stem(w) for w in words),
                priority=prio,
                is_phrase=len(words) > 1,
            )
        )
    return out


_kw_word = st.sampled_from(
    ["run", "running", "question", "Boston", "Einstein", "capital", "1999",
     "physicist", "zzyzx"]  # zzyzx: never in any paragraph
)
_kw_specs = st.lists(
    st.lists(_kw_word, min_size=1, max_size=2), min_size=1, max_size=4
)


@settings(max_examples=40, deadline=None)
@given(docs=st.lists(_doc_paragraphs, min_size=1, max_size=3), kws=_kw_specs)
def test_keyword_positions_fast_path_identical(docs, kws):
    index = _make_index(docs)
    kstems = [kw.stems for kw in _make_keywords(kws)]
    resolver = KeywordIdResolver(kstems)
    for doc in index.doc_ids:
        for para, _stems in index.paragraphs_of(doc):
            terms = index.paragraph_terms(para.key)
            assert terms is not None
            naive, stems_at = keyword_positions(para.text, kstems)
            fast = keyword_positions_from_ids(
                terms, resolver.resolve(terms.vocab)
            )
            assert fast == naive
            assert terms.stems_at == tuple(stems_at)


@settings(max_examples=40, deadline=None)
@given(docs=st.lists(_doc_paragraphs, min_size=1, max_size=3), kws=_kw_specs)
def test_paragraph_scores_and_ranks_identical(docs, kws):
    index = _make_index(docs)
    keywords = _make_keywords(kws)
    processed = ProcessedQuestion(
        question=Question(qid=0, text="what runs in Boston ?"),
        answer_type=EntityType.UNKNOWN,
        keywords=tuple(keywords),
    )
    paragraphs = [
        para
        for doc in index.doc_ids
        for para, _ in index.paragraphs_of(doc)
    ]
    naive = ParagraphScorer().score(processed, paragraphs)
    fast = ParagraphScorer(
        term_lookup=lambda p: index.paragraph_terms(p.key)
    ).score(processed, paragraphs)
    assert [(sp.score, sp.keywords_present) for sp in naive] == [
        (sp.score, sp.keywords_present) for sp in fast
    ]
    rank = lambda scored: [  # noqa: E731
        sp.paragraph.key
        for sp in sorted(scored, key=lambda s: (-s.score, s.paragraph.key))
    ]
    assert rank(naive) == rank(fast)


@settings(max_examples=25, deadline=None)
@given(docs=st.lists(_doc_paragraphs, min_size=1, max_size=3), kws=_kw_specs)
def test_answer_spans_identical(docs, kws):
    index = _make_index(docs)
    keywords = _make_keywords(kws)
    processed = ProcessedQuestion(
        question=Question(qid=0, text="who was born in 1999 ?"),
        answer_type=EntityType.UNKNOWN,
        keywords=tuple(keywords),
    )
    recognizer = EntityRecognizer()
    naive_ap = AnswerProcessor(recognizer)
    fast_ap = AnswerProcessor(
        recognizer, term_lookup=lambda p: index.paragraph_terms(p.key)
    )
    paragraphs = [
        para
        for doc in index.doc_ids
        for para, _ in index.paragraphs_of(doc)
    ]
    scorer = ParagraphScorer()
    processed_paras = scorer.score(processed, paragraphs)
    a = naive_ap.extract(processed, processed_paras)
    b = fast_ap.extract(processed, processed_paras)
    assert [
        (x.text, x.short, x.long, x.score, x.paragraph_key, x.entity_type)
        for x in a
    ] == [
        (x.text, x.short, x.long, x.score, x.paragraph_key, x.entity_type)
        for x in b
    ]


@pytest.mark.slow
def test_full_pipeline_equivalence_on_random_corpora():
    """End-to-end: optimized pipeline == reference pipeline, several seeds."""
    for seed in (3, 11):
        config = CorpusConfig(
            n_collections=2, docs_per_collection=15, seed=seed
        )
        corpus = generate_corpus(config)
        from repro.retrieval import IndexedCorpus

        indexed = IndexedCorpus(corpus)
        recognizer = EntityRecognizer(
            corpus.knowledge.gazetteer(),
            extra_nationalities=corpus.knowledge.nationalities,
        )
        fast = QAPipeline(indexed, recognizer)
        naive = QAPipeline(
            indexed.reconfigured(conjunction_cache=0, galloping=False),
            recognizer,
            use_term_index=False,
        )
        for q in generate_questions(corpus)[:12]:
            a = naive.answer(q.text, qid=q.qid)
            b = fast.answer(q.text, qid=q.qid)
            assert a.paragraph_ranks == b.paragraph_ranks
            assert a.work == b.work  # incl. postings/doc-bytes counters
            assert (a.n_retrieved, a.n_accepted) == (b.n_retrieved, b.n_accepted)
            assert [
                (x.text, x.short, x.long, x.score, x.paragraph_key, x.entity_type)
                for x in a.answers
            ] == [
                (x.text, x.short, x.long, x.score, x.paragraph_key, x.entity_type)
                for x in b.answers
            ]
