"""Equivalence of the packed term views and the re-tokenize reference.

The paragraph term layer must be a pure optimization: PS ranks, AP answer
spans and the Boolean engine's cost accounting have to be byte-identical
whether paragraphs are re-tokenized per question (the references in
``tests/reference.py``) or read through a packed :class:`ParagraphTerms`
— the index's own, or one built from the text.  These property tests
drive both over randomized corpora and randomized keyword sets.
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
from repro.nlp.entities import EntityRecognizer, EntityType, Gazetteer
from repro.nlp.keywords import Keyword
from repro.nlp.stemming import cached_stem
from repro.qa.answer_processing import _WINDOW_RADIUS, AnswerProcessor
from repro.qa.paragraph_scoring import (
    KeywordIdResolver,
    ParagraphScorer,
    terms_from_text,
)
from repro.qa.pipeline import QAPipeline
from repro.qa.question import ProcessedQuestion, Question, ScoredParagraph
from repro.retrieval.inverted_index import CollectionIndex, ParagraphTerms
from tests.reference import keyword_positions, reference_pipeline, text_terms

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
    for para in index.paragraphs:
        naive, stems_at = keyword_positions(para.text, kstems)
        # The index's view, one built from the text, and the reference view.
        held = index.paragraph_terms(para.key)
        built = ParagraphTerms.from_text(para.text)
        for terms in (held, built):
            assert terms.keyword_positions(resolver.resolve(terms.vocab)) == naive
            assert terms.stems_at == tuple(stems_at)
        assert built.token_texts() == held.token_texts()
        reference = text_terms(para)
        assert reference.keyword_positions(resolver.resolve(reference.vocab)) == naive


@st.composite
def _corpus_paragraph_and_keywords(draw, indexed):
    """A test-corpus paragraph's term view and a keyword list mixing
    stems it holds, stems of another paragraph, a stem no vocabulary
    ever interned, and phrases read off its own token sequence — some
    starting so close to its end that they run on into the next
    paragraph's tokens."""
    index = draw(st.sampled_from(indexed.indexes))
    ordinal = draw(st.integers(0, len(index.paragraphs) - 1))
    terms = index.paragraph_terms(index.paragraphs[ordinal].key)
    stems = terms.stems_at
    following = (
        index.paragraph_terms(index.paragraphs[ordinal + 1].key).stems_at
        if ordinal + 1 < len(index.paragraphs)
        else ()
    )
    other = index.paragraph_terms(draw(st.sampled_from(index.paragraphs)).key)
    n = len(stems)

    def phrase(start: int, length: int) -> tuple[str, ...]:
        words = (stems[start:] + following)[:length]
        return words if len(words) > 1 else words + ("zzyzx",)

    keyword = st.one_of(
        st.sampled_from(stems).map(lambda s: (s,)),
        st.sampled_from(other.stems_at).map(lambda s: (s,)),
        st.just(("zzyzx",)),
        st.builds(phrase, st.integers(0, n - 1), st.integers(2, 3)),
        # The head sits within len(phrase) - 1 tokens of the end.
        st.builds(phrase, st.integers(max(0, n - 2), n - 1), st.integers(2, 3)),
    )
    return terms, draw(st.lists(keyword, min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_term_view_kernel_equals_the_text_path_on_the_test_corpus(
    shared_indexed_corpus, data
):
    terms, kstems = data.draw(_corpus_paragraph_and_keywords(shared_indexed_corpus))
    resolved = KeywordIdResolver(kstems).resolve(terms.vocab)
    naive, _ = keyword_positions(terms.text, kstems)
    assert terms.keyword_positions(resolved) == naive


def test_a_phrase_never_runs_on_into_the_next_paragraph():
    index = _make_index([["alpha beta", "gamma delta"]])
    first, second = (index.paragraph_terms(p.key) for p in index.paragraphs)
    resolver = KeywordIdResolver(
        [kw.stems for kw in _make_keywords([["beta", "gamma"], ["gamma", "delta"]])]
    )
    assert first.keyword_positions(resolver.resolve(first.vocab)) == [[], []]
    assert second.keyword_positions(resolver.resolve(second.vocab)) == [[], [0]]


def test_one_keyword_paragraph_scores_exactly_55():
    index = _make_index([["a runner runs , and runs again", "nothing here"]])
    kstems = [kw.stems for kw in _make_keywords([["run"], ["Boston"]])]
    para = index.paragraphs[0]
    for scorer in (
        ParagraphScorer(text_terms),
        ParagraphScorer(),
        ParagraphScorer(term_lookup=lambda p: index.paragraph_terms(p.key)),
    ):
        sp = scorer.score_one(para, kstems)
        assert (sp.score, sp.keywords_present) == (55.0, 1)
    assert ParagraphScorer._score_positions(kstems, [[4], []]) == (55.0, 1)


# -- AP: a window is scored only where a keyword can reach it ---------------------------
def _window_case(text: str) -> list[tuple[str, float]]:
    """The answers to "where is mahal?" (keyword ``mahal``, LOCATION)
    from one paragraph, on the index's view, on one built from the text,
    and on the text oracle."""
    gazetteer = Gazetteer()
    gazetteer.add("Agra", EntityType.LOCATION)
    recognizer = EntityRecognizer(gazetteer)
    index = _make_index([[text]])
    processed = ProcessedQuestion(
        question=Question(qid=0, text="where is mahal ?"),
        answer_type=EntityType.LOCATION,
        keywords=tuple(_make_keywords([["mahal"]])),
    )
    lookup = lambda p: index.paragraph_terms(p.key)  # noqa: E731
    out = []
    for term_lookup in (lookup, terms_from_text, text_terms):
        scored = ParagraphScorer(term_lookup).score(processed, index.paragraphs)
        answers = AnswerProcessor(recognizer, term_lookup=term_lookup).extract(
            processed, scored
        )
        out.append([(a.text, a.score) for a in answers])
    assert out[0] == out[1] == out[2]
    return out[0]


@pytest.mark.parametrize("candidate_first", [False, True])
def test_a_keyword_exactly_at_the_window_radius_is_in_reach(candidate_first):
    def text(gap: int) -> str:
        words = ["mahal"] + ["lorem"] * gap + ["Agra"]
        return " ".join(reversed(words) if candidate_first else words)

    # `gap` filler tokens put the keyword gap + 1 tokens from the candidate.
    (answer,) = _window_case(text(_WINDOW_RADIUS - 1))
    assert answer[0] == "Agra"
    assert _window_case(text(_WINDOW_RADIUS)) == []


def test_keywords_on_both_sides_all_out_of_reach_yield_no_answer():
    gap = " lorem" * _WINDOW_RADIUS
    assert _window_case(f"mahal{gap} Agra{gap} mahal") == []
    # One occurrence moved a token closer is in reach again.
    assert len(_window_case(f"mahal{gap} Agra{gap[6:]} mahal")) == 1


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
    paragraphs = list(index.paragraphs)
    naive = ParagraphScorer(text_terms).score(processed, paragraphs)
    built = ParagraphScorer().score(processed, paragraphs)
    fast = ParagraphScorer(
        term_lookup=lambda p: index.paragraph_terms(p.key)
    ).score(processed, paragraphs)
    value = lambda scored: [  # noqa: E731
        (sp.score, sp.keywords_present) for sp in scored
    ]
    assert value(naive) == value(built) == value(fast)
    rank = lambda scored: [  # noqa: E731
        sp.paragraph.key
        for sp in sorted(scored, key=lambda s: (-s.score, s.paragraph.key))
    ]
    assert rank(naive) == rank(built) == rank(fast)


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
    paragraphs = list(index.paragraphs)
    got = []
    # Each side's AP takes its own PS's match; the default side also
    # matches unmatched paragraphs for itself.
    for term_lookup in (text_terms, lambda p: index.paragraph_terms(p.key)):
        scored = ParagraphScorer(term_lookup).score(processed, paragraphs)
        ap = AnswerProcessor(recognizer, term_lookup=term_lookup)
        got.append(ap.extract(processed, scored))
    unmatched = [
        ScoredParagraph(sp.paragraph, sp.score, sp.keywords_present)
        for sp in ParagraphScorer(text_terms).score(processed, paragraphs)
    ]
    got.append(AnswerProcessor(recognizer).extract(processed, unmatched))
    a, b, c = (
        [
            (x.text, x.short, x.long, x.score, x.paragraph_key, x.entity_type)
            for x in answers
        ]
        for answers in got
    )
    assert a == b == c


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
        naive = reference_pipeline(indexed, recognizer)
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
