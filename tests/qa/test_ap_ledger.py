"""AP's one loop must rank exactly what the every-window path ranked.

``AnswerProcessor.extract`` takes PS's match off the scored paragraph,
scores windows from token indices, and keeps one plain tuple per answer
text until the ranking is cut.  None of that may show: the answers are
those of ``merge_answers`` over an ``Answer`` built for every window that
holds a keyword, whichever way a paragraph reaches AP — matched by PS,
unmatched, or from outside the index — and the bare stage signatures the
benchmark replays give what ``QAPipeline.answer`` gives.  A paragraph
the index does not hold is read through its own term view, even when it
shares a key with one the index holds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.nlp import EntityRecognizer, EntityType, Gazetteer
from repro.nlp.tokenizer import tokenize
from repro.qa import (
    AnswerProcessor,
    ParagraphScorer,
    QAPipeline,
    Question,
    QuestionProcessor,
    ScoredParagraph,
    merge_answers,
    result_fingerprint,
)
from repro.qa.answer_processing import _W
from repro.qa.question import Answer
from repro.retrieval import Paragraph
from tests.reference import (
    keyword_positions,
    reference_pipeline,
    text_terms,
    window_score,
)


def _answers(answers):
    return [
        (a.text, a.short, a.long, a.score, a.paragraph_key, a.entity_type)
        for a in answers
    ]


def _clip(text, cand, nbytes):
    margin = max(0, (nbytes - (cand.end - cand.start)) // 2)
    return text[max(0, cand.start - margin) : min(len(text), cand.end + margin)]


def every_window_answers(ap, processed, accepted):
    """The reference: re-match each paragraph from its raw text, take its
    candidates from a re-tokenize processor with ``ap``'s recognizer,
    score every candidate's window with :func:`tests.reference.window_score`
    (the general loop, apposition read off the re-tokenized texts), build
    an ``Answer`` for each window that holds a keyword, and let
    ``merge_answers`` de-duplicate, order and cut."""
    reference = AnswerProcessor(ap.recognizer, term_lookup=text_terms)
    kstems = [kw.stems for kw in processed.keywords]
    max_rank = max((sp.score for sp in accepted), default=1.0) or 1.0
    answers = []
    for sp in accepted:
        text = sp.paragraph.text
        positions, stems_at = keyword_positions(text, kstems)
        texts = [text[tok.start : tok.end] for tok in tokenize(text)]
        assert len(texts) == len(stems_at)
        present = sum(1 for p in positions if p)
        for cand in reference.candidates(processed, sp.paragraph):
            score = window_score(
                cand.token_start,
                cand.token_end,
                texts,
                positions,
                _W["coverage"] * present / (len(kstems) or 1),
                _W["paragraph_rank"] * sp.score / max_rank,
            )
            if score > 0.0:
                answers.append(
                    Answer(
                        text=cand.text,
                        short=_clip(text, cand, 50),
                        long=_clip(text, cand, 250),
                        score=score,
                        paragraph_key=sp.paragraph.key,
                        entity_type=cand.type,
                    )
                )
    return merge_answers([answers], ap.n_answers)


def _unmatched(accepted):
    """The same scored paragraphs, built the three-argument way."""
    return [
        ScoredParagraph(sp.paragraph, sp.score, sp.keywords_present)
        for sp in accepted
    ]


# -- the generated test corpus ---------------------------------------------------------
@pytest.fixture(scope="module")
def stack(shared_corpus, shared_indexed_corpus, shared_questions):
    recognizer = EntityRecognizer(
        shared_corpus.knowledge.gazetteer(),
        extra_nationalities=shared_corpus.knowledge.nationalities,
    )
    texts = [q.text for q in shared_questions]
    oracle = reference_pipeline(shared_indexed_corpus, recognizer)
    expected = [result_fingerprint(oracle.answer(text)) for text in texts]
    assert sum(1 for fp in expected if fp[0]) > len(texts) // 2
    return shared_indexed_corpus, recognizer, texts, expected


def _fresh(indexed, recognizer):
    return QAPipeline(indexed.reconfigured(), recognizer)


def test_every_question_matches_the_oracle_serial_and_batched(stack):
    indexed, recognizer, texts, expected = stack
    pipeline = _fresh(indexed, recognizer)
    assert [result_fingerprint(pipeline.answer(t)) for t in texts] == expected

    # Batched, from cold, every third question asked twice in its batch
    # and every fifth once more two batches later.
    stream, want = [], []
    for i, (text, fp) in enumerate(zip(texts, expected)):
        for _ in range(2 if i % 3 == 0 else 1):
            stream.append(text)
            want.append(fp)
        if i % 5 == 0 and i >= 16:
            stream.append(texts[i - 16])
            want.append(expected[i - 16])
    batched = _fresh(indexed, recognizer)
    got = []
    for lo in range(0, len(stream), 8):
        got += batched.answer_batch(stream[lo : lo + 8])
    assert [result_fingerprint(r) for r in got] == want


def test_bare_stage_calls_reproduce_the_pipeline(stack):
    """What ``bench/serve.py::replay_stages`` does: the five stage objects
    called in order with no resolver and no keyword arguments."""
    indexed, recognizer, texts, _ = stack
    pipeline = _fresh(indexed, recognizer)
    stages = _fresh(indexed, recognizer)
    for qid, text in enumerate(texts[:60]):
        result = pipeline.answer(text, qid=qid)
        processed = stages.qp.process(Question(qid=qid, text=text))
        paragraphs = stages.pr.retrieve(processed).paragraphs
        scored = stages.ps.score(processed, paragraphs)
        accepted = stages.po.order(scored)
        answers = stages.ap.extract(processed, accepted)
        assert _answers(answers) == _answers(result.answers)
        assert (len(paragraphs), len(accepted)) == (
            result.n_retrieved,
            result.n_accepted,
        )
        assert tuple(sp.paragraph.key for sp in accepted) == result.paragraph_ranks


def test_matched_unmatched_and_mixed_accepted_lists_agree(stack):
    indexed, recognizer, texts, _ = stack
    pipeline = _fresh(indexed, recognizer)
    reference = AnswerProcessor(recognizer, term_lookup=text_terms)
    standalone = AnswerProcessor(recognizer)
    checked = 0
    for qid, text in enumerate(texts[:80]):
        processed = pipeline.qp.process(Question(qid=qid, text=text))
        paragraphs = pipeline.pr.retrieve(processed).paragraphs
        accepted = pipeline.po.order(pipeline.ps.score(processed, paragraphs))
        if not accepted:
            continue
        assert all(sp.match is not None for sp in accepted)
        want = _answers(every_window_answers(reference, processed, accepted))
        assert _answers(pipeline.ap.extract(processed, accepted)) == want
        assert _answers(pipeline.ap.extract(processed, _unmatched(accepted))) == want
        assert _answers(reference.extract(processed, accepted)) == want
        assert _answers(reference.extract(processed, _unmatched(accepted))) == want
        assert _answers(standalone.extract(processed, _unmatched(accepted))) == want

        # One paragraph the index has never seen, ranked in the middle,
        # among matched and unmatched indexed ones.
        donor = accepted[0].paragraph
        outsider = ScoredParagraph(
            Paragraph(
                doc_id=10**6, collection_id=donor.collection_id, index=0,
                text=donor.text,
            ),
            accepted[0].score,
            accepted[0].keywords_present,
        )
        held = indexed.indexes[donor.collection_id]
        assert held.paragraph_terms(outsider.paragraph.key) is None
        own = indexed.term_lookup(outsider.paragraph)
        assert own is not indexed.term_lookup(donor)
        assert own.token_texts() == indexed.term_lookup(donor).token_texts()
        mixed = _unmatched(accepted[:1]) + [outsider] + list(accepted[1:])
        want = _answers(every_window_answers(reference, processed, mixed))
        assert _answers(pipeline.ap.extract(processed, mixed)) == want
        checked += bool(want)
    assert checked > 40


def test_own_words_memo_lives_for_one_call(stack, stem_lookups):
    """The stem-cache traffic of a question is a function of the question
    alone: asking it again issues the same lookups again.  They are QP's:
    AP stems each candidate text once per processor, with the pure Porter
    function, and keeps the stems beside the entity layer."""
    indexed, recognizer, texts, _ = stack
    pipeline = _fresh(indexed, recognizer)
    traces = []
    for _ in range(2):
        stem_lookups.clear()
        for text in texts[:20]:
            pipeline.answer(text)
        traces.append(list(stem_lookups))
    assert traces[0] == traces[1] and traces[0]


# -- hand-built paragraphs ---------------------------------------------------------------
@pytest.fixture()
def recognizer():
    g = Gazetteer()
    g.add("Taj Mahal", EntityType.LOCATION)
    g.add("Agra", EntityType.LOCATION)
    g.add("Delhi", EntityType.LOCATION)
    return EntityRecognizer(g)


def _processed(recognizer, text="Where is the Taj Mahal?"):
    return QuestionProcessor(recognizer).process(Question(0, text))


def _sp(text, doc_id, score=10.0):
    return ScoredParagraph(
        Paragraph(doc_id=doc_id, collection_id=0, index=0, text=text), score, 1
    )


class TestTieRule:
    def test_first_seen_paragraph_wins_an_equal_score(self, recognizer):
        ap = AnswerProcessor(recognizer)
        processed = _processed(recognizer)
        # Same window geometry, same PS score: equal window scores.  The
        # later-sorting paragraph comes first in accepted order.
        first = _sp("yes, the Taj Mahal is in Agra, they say.", doc_id=7)
        second = _sp("now, the Taj Mahal is in Agra, one hears.", doc_id=3)
        (answer,) = ap.extract(processed, [first, second])
        (from_first,) = ap.extract(processed, [first])
        (from_second,) = ap.extract(processed, [second])
        assert from_first.score == from_second.score
        assert from_first.long != from_second.long
        assert _answers([answer]) == _answers([from_first])
        assert answer.paragraph_key == (7, 0)
        assert ap.extract(processed, [second, first])[0].paragraph_key == (3, 0)
        assert _answers([answer]) == _answers(
            every_window_answers(ap, processed, [first, second])
        )

    def test_case_variants_merge_and_the_better_window_wins(self, recognizer):
        ap = AnswerProcessor(recognizer)
        processed = _processed(recognizer)
        lower = _sp("The Taj Mahal is in Agra.", doc_id=1)
        upper = _sp("The Taj Mahal is in AGRA.", doc_id=2)
        for accepted in ([lower, upper], [upper, lower]):
            (answer,) = ap.extract(processed, accepted)
            # Equal scores: the first spelling seen is the one kept.
            assert answer.text == accepted[0].paragraph.text[-5:-1]
            assert answer.paragraph_key == accepted[0].paragraph.key
        # A strictly better window replaces whatever came first.
        better = _sp("The Taj Mahal, AGRA.", doc_id=9)
        (answer,) = ap.extract(processed, [lower, better])
        assert (answer.text, answer.paragraph_key) == ("AGRA", (9, 0))
        assert answer.score > ap.extract(processed, [lower])[0].score


class TestOwnWordsFilter:
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0)])
    def test_dropped_before_and_after_a_survivor(self, recognizer, order):
        """"Taj Mahal" is a LOCATION inside its own window in every
        paragraph — the highest-scoring candidate there is — and must
        never surface, in any spelling, wherever "Agra" is first seen."""
        ap = AnswerProcessor(recognizer)
        processed = _processed(recognizer)
        paragraphs = [
            _sp("The Taj Mahal draws crowds.", doc_id=1),
            _sp("The Taj Mahal is in Agra.", doc_id=2),
            _sp("The TAJ MAHAL, seen from Delhi.", doc_id=3),
        ]
        accepted = [paragraphs[i] for i in order]
        answers = ap.extract(processed, accepted)
        assert sorted(a.text for a in answers) == ["Agra", "Delhi"]
        assert _answers(answers) == _answers(
            every_window_answers(ap, processed, accepted)
        )

    def test_filter_is_per_question(self, recognizer):
        """One processor, two questions: what the first question's filter
        dropped is a fair answer to the second."""
        ap = AnswerProcessor(recognizer)
        accepted = [_sp("The Taj Mahal is in Agra.", doc_id=2)]
        first = ap.extract(_processed(recognizer), accepted)
        assert [a.text for a in first] == ["Agra"]
        second = ap.extract(_processed(recognizer, "What is in Agra?"), accepted)
        assert [a.text for a in second] == ["Taj Mahal"]


def test_scored_paragraph_match_is_not_part_of_its_value():
    plain = _sp("The Taj Mahal is in Agra.", doc_id=1)
    carrying = dataclasses.replace(plain, match=(object(), [[1]]))
    assert carrying == plain and hash(carrying) == hash(plain)
    assert "match" not in repr(carrying)


# -- paragraphs the index does not hold -------------------------------------------------
def test_a_foreign_paragraph_on_a_held_key_reads_its_own_text(
    shared_indexed_corpus, recognizer
):
    """PS and AP of an indexed pipeline score and answer a paragraph whose
    key the index holds, with another text, exactly as standalone
    processors do — never through the held paragraph's term view."""
    pipeline = _fresh(shared_indexed_corpus, recognizer)
    processed = _processed(recognizer)
    held = shared_indexed_corpus.indexes[0].paragraphs[0]
    expected = {
        "Nothing about it here, Delhi.": ((0.0, 0), []),
        "The Taj Mahal is in Agra.": ((55.0, 1), ["Agra"]),
    }
    for text, (score, answers) in expected.items():
        foreign = Paragraph(
            doc_id=held.doc_id,
            collection_id=held.collection_id,
            index=held.index,
            text=text,
        )
        assert foreign.key == held.key and foreign.text != held.text
        (scored,) = pipeline.ps.score(processed, [foreign])
        (alone,) = ParagraphScorer().score(processed, [foreign])
        assert (scored.score, scored.keywords_present) == score
        assert (alone.score, alone.keywords_present) == score
        got = pipeline.ap.extract(processed, [scored])
        assert [a.text for a in got] == answers
        standalone = AnswerProcessor(recognizer)
        assert _answers(got) == _answers(standalone.extract(processed, [alone]))
        assert _answers(pipeline.ap.extract(processed, _unmatched([scored]))) == (
            _answers(got)
        )
    # A collection the corpus does not have holds no paragraph either.
    stray = Paragraph(
        doc_id=0,
        collection_id=shared_indexed_corpus.n_collections,
        index=0,
        text="The Taj Mahal is in Agra.",
    )
    assert shared_indexed_corpus.term_lookup(stray).token_texts() == [
        "The", "Taj", "Mahal", "is", "in", "Agra", ".",
    ]


def test_paragraphs_sharing_a_key_keep_their_own_entity_spans(recognizer):
    """The entity layer is keyed on the term view: two hand-built
    paragraphs with one key and different texts, through one processor
    in either order, each yield their own answers."""
    processed = _processed(recognizer)
    agra = _sp("The Taj Mahal is in Agra.", doc_id=1)
    # Agra's spans read on this text would give "Delhi one".
    delhi = _sp("In Delhi one finds no Taj Mahal.", doc_id=1)
    assert agra.paragraph.key == delhi.paragraph.key
    for first, second in ((agra, delhi), (delhi, agra)):
        ap = AnswerProcessor(recognizer)
        for sp in (first, second, first):
            got = ap.extract(processed, [sp])
            assert _answers(got) == _answers(
                AnswerProcessor(recognizer).extract(processed, [sp])
            )
            assert _answers(got) == _answers(
                every_window_answers(ap, processed, [sp])
            )
    assert [a.text for a in ap.extract(processed, [agra])] == ["Agra"]
    assert [a.text for a in ap.extract(processed, [delhi])] == ["Delhi"]
