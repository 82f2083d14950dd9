"""What AP's entity layer stores must be what it would compute per question.

On a paragraph's first visit AP keeps, per recognized span, its type
code, token start and end, character start and end and apposition count,
and per distinct candidate text the stems of its words; every later
question reads these instead of slicing token texts, calling
``char_span`` or stemming.  A paragraph whose keywords occur once in all
scores its windows inline.  Each stored fact and the inline score are
checked here against the derivation they replace — on the test corpus'
paragraphs and on hand-built ones with hyphenated names, ``St.``-style
periods, apostrophes, spans at either end and every apposition
neighbour — and AP is shown to leave the shared stem cache alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import (
    EntityRecognizer,
    EntityType,
    Gazetteer,
    answer_types,
    entities,
    keywords,
)
from repro.nlp import tokenizer as tokenizer_module
from repro.nlp.stemming import SHARED_STEM_CACHE
from repro.qa import (
    AnswerProcessor,
    ParagraphScorer,
    QAPipeline,
    Question,
    QuestionProcessor,
    ScoredParagraph,
)
from repro.qa import question_processing
from repro.qa.answer_processing import _W, _WINDOW_RADIUS
from repro.qa.question import ProcessedQuestion
from repro.retrieval import Paragraph, ParagraphTerms
from tests.reference import TextTerms, window_score

_ANYTHING = ProcessedQuestion(
    question=Question(qid=0, text="?"), answer_type=EntityType.UNKNOWN, keywords=()
)


def _kept(ap, terms):
    """The entity layer's sextuples for the paragraph viewed by ``terms``."""
    packed = ap._entity_layer[terms.views][terms.offset]
    return [tuple(packed[k : k + 6]) for k in range(0, len(packed), 6)]


def _stored(ap, terms):
    """:func:`_kept`, after a visit through ``ap``'s own ``term_lookup``."""
    ap.candidates(_ANYTHING, Paragraph(0, 0, 0, terms.text))
    return _kept(ap, terms)


def _derived(recognizer, terms):
    """The same sextuples, derived the way a window read them per question."""
    texts = terms.token_texts()
    out = []
    for i, j, etype in recognizer.spans(texts):
        c_hi = j - 1
        apposition = 0
        if i > 0 and terms.token_text(i - 1) in (",", "(", "-"):
            apposition += 1
        if c_hi + 1 < terms.n_tokens and terms.token_text(c_hi + 1) in (",", ")", "-"):
            apposition += 1
        code = next(c for c, e in enumerate(EntityType) if e is etype)
        out.append((code, i, j, *terms.char_span(i, j), apposition))
    return out


def _own_words_through_the_cache(text):
    return frozenset(
        SHARED_STEM_CACHE(w) for w in text.lower().split() if w and w[0].isalpha()
    )


def check_stored_facts(recognizer, terms):
    ap = AnswerProcessor(recognizer, term_lookup=lambda _p: terms)
    stored = _stored(ap, terms)
    assert stored == _derived(recognizer, terms)
    # The reference term view of the same text stores the same facts.
    reference = TextTerms(terms.text)
    assert _stored(
        AnswerProcessor(recognizer, term_lookup=lambda _p: reference), reference
    ) == stored
    for _code, _i, _j, start, end, _app in stored:
        key = terms.text[start:end].lower()
        assert ap._own_words[key] == _own_words_through_the_cache(key)
    return stored


# -- the test corpus' paragraphs ---------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_stack(shared_corpus, shared_indexed_corpus):
    recognizer = EntityRecognizer(
        shared_corpus.knowledge.gazetteer(),
        extra_nationalities=shared_corpus.knowledge.nationalities,
    )
    paragraphs = [
        para for index in shared_indexed_corpus.indexes for para in index.paragraphs
    ]
    return shared_indexed_corpus, recognizer, paragraphs


@settings(max_examples=60, deadline=None)
@given(pick=st.integers(min_value=0))
def test_stored_facts_of_indexed_and_text_built_views(corpus_stack, pick):
    indexed, recognizer, paragraphs = corpus_stack
    para = paragraphs[pick % len(paragraphs)]
    held = indexed.term_lookup(para)
    own = ParagraphTerms.from_text(para.text)
    assert held.views is not own.views and own.offset == 0
    assert check_stored_facts(recognizer, held) == check_stored_facts(
        recognizer, own
    )


# -- hand-built paragraphs ---------------------------------------------------------------
@pytest.fixture(scope="module")
def recognizer():
    g = Gazetteer()
    for name in ("Jean-Paul Sartre", "O'Hare", "Agra", "Upper Agra Valley"):
        g.add(name, EntityType.LOCATION)
    g.add("St. Louis", EntityType.LOCATION)
    g.add("Mary Ann", EntityType.PERSON)
    return EntityRecognizer(g)


HAND_BUILT = [
    "Agra",
    "Agra, by the river",
    "They flew to Agra",
    "(Agra) - Jean-Paul Sartre, St. Louis - O'Hare (Agra).",
    "Jean-Paul Sartre's room in St. Louis, near O'Hare's gate, 1999.",
    "- Upper Agra Valley -",
    "Mary Ann, (Agra), - Agra - , Agra ) ( Agra ,",
    "In St. Louis , Mr. Smith met Mary Ann ( of Agra ) in May 1901 .",
]


@pytest.mark.parametrize("text", HAND_BUILT)
def test_stored_facts_of_hand_built_paragraphs(recognizer, text):
    stored = check_stored_facts(recognizer, ParagraphTerms.from_text(text))
    assert stored


def test_hand_built_cover_both_ends_and_every_apposition(recognizer):
    starts, ends, appositions = set(), set(), set()
    for text in HAND_BUILT:
        terms = ParagraphTerms.from_text(text)
        for _code, i, j, _s, _e, app in check_stored_facts(recognizer, terms):
            starts.add(i == 0)
            ends.add(j == terms.n_tokens)
            appositions.add(app)
    assert starts == ends == {True, False}
    assert appositions == {0, 1, 2}


# -- one occurrence in all: the inline score --------------------------------------------
_FILL = "lorem"


def _lone_case(recognizer, candidate, before, after, offset, side):
    """A paragraph of filler around ``candidate`` flanked by ``before`` /
    ``after``, with the one keyword occurrence ``offset`` tokens from the
    candidate's first (``side == "start"``) or last token.  Returns
    ``(paragraph text, candidate token span, keyword position)``, or None
    when that position falls on the candidate or its flanks."""
    width = len(candidate.split())
    pad = _WINDOW_RADIUS + 3
    tokens = [_FILL] * pad + [before] + candidate.split() + [after] + [_FILL] * pad
    i = pad + 1
    j = i + width
    p = (i if side == "start" else j - 1) + offset
    if i - 1 <= p <= j:
        return None
    tokens[p] = "zork"
    return " ".join(tokens), (i, j), p


@pytest.mark.parametrize("candidate", ["Agra", "Upper Agra Valley"])
@pytest.mark.parametrize("flanks", [("so", "so"), (",", ","), ("(", ")"), ("-", "so")])
@pytest.mark.parametrize("side", ["start", "end"])
def test_inline_score_equals_the_general_loop(recognizer, candidate, flanks, side):
    """Two keywords, one present once, and a better-ranked paragraph
    without candidates ahead of it: coverage and rank are not round
    numbers, so any reordering of the sum would show in the last bit."""
    question = Question(0, "Where is zork quux?")
    processed = QuestionProcessor(recognizer).process(question)
    assert sorted(kw.stems for kw in processed.keywords) == [("quux",), ("zork",)]
    scorer = ParagraphScorer()
    leader = ScoredParagraph(Paragraph(1, 0, 0, "lorem zork quux"), 97.3, 2)
    checked = 0
    for offset in range(-_WINDOW_RADIUS - 1, _WINDOW_RADIUS + 2):
        case = _lone_case(recognizer, candidate, *flanks, offset, side)
        if case is None:
            continue
        text, (i, j), p = case
        ap = AnswerProcessor(recognizer)
        (sp,) = scorer.score(processed, [Paragraph(0, 0, 0, text)])
        assert sp.score < leader.score
        answers = {a.text: a.score for a in ap.extract(processed, [leader, sp])}
        terms, kw_positions = sp.match
        assert sorted(kw_positions) == [[], [p]]
        texts = terms.token_texts()
        (app,) = [f[5] for f in _kept(ap, terms) if (f[1], f[2]) == (i, j)]
        coverage = _W["coverage"] * 1 / 2
        rank = _W["paragraph_rank"] * sp.score / leader.score
        general = AnswerProcessor._score_window(
            i, j, len(texts), kw_positions, app, coverage, rank
        )
        assert general == window_score(i, j, texts, kw_positions, coverage, rank)
        if general > 0.0:
            assert answers[candidate] == general
            checked += 1
        else:
            assert candidate not in answers
    assert checked >= _WINDOW_RADIUS


# -- stem-cache traffic is QP's alone ----------------------------------------------------
def test_ap_issues_no_stem_cache_lookups_cold_or_warm(
    corpus_stack, shared_questions, stem_lookups
):
    indexed, recognizer, _ = corpus_stack
    pipeline = QAPipeline(indexed.reconfigured(), recognizer)
    staged = []
    for qid, q in enumerate(shared_questions[:40]):
        processed = pipeline.qp.process(Question(qid=qid, text=q.text))
        paragraphs = pipeline.pr.retrieve(processed).paragraphs
        staged.append(
            (processed, pipeline.po.order(pipeline.ps.score(processed, paragraphs)))
        )
    assert sum(len(accepted) for _, accepted in staged) > 40
    ap = AnswerProcessor(recognizer, term_lookup=indexed.term_lookup)
    # Staging went through QP: the recording is not vacuous.
    assert stem_lookups
    for _ in ("cold", "warm"):
        stem_lookups.clear()
        for processed, accepted in staged:
            ap.extract(processed, accepted)
            for sp in accepted[:2]:
                ap.candidates(processed, sp.paragraph)
        assert stem_lookups == []
    assert ap._own_words


# -- QP ------------------------------------------------------------------------------------
def test_question_processing_tokenizes_the_question_once(recognizer, monkeypatch):
    calls = []
    real = tokenizer_module.tokenize

    def counting(text):
        calls.append(text)
        return real(text)

    # Every module that binds the tokenizer by name.
    for module in (answer_types, entities, keywords, question_processing):
        monkeypatch.setattr(module, "tokenize", counting)
    question = Question(0, "Where did Mary Ann see Jean-Paul Sartre in 1999?")
    processed = QuestionProcessor(recognizer).process(question)
    assert calls == [question.text]
    monkeypatch.undo()
    assert processed == QuestionProcessor(recognizer).process(question)
    assert processed.answer_type is EntityType.LOCATION
    assert "Mary Ann" in {kw.text for kw in processed.keywords}
