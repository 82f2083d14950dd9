"""Unit tests for the five Q/A pipeline modules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusConfig, generate_corpus
from repro.nlp import EntityRecognizer, EntityType, Gazetteer, Keyword, stem
from repro.qa import (
    AnswerProcessor,
    ParagraphOrderer,
    ParagraphRetriever,
    ParagraphScorer,
    Question,
    QuestionProcessor,
    ScoredParagraph,
    merge_answers,
)
from repro.qa.question import Answer, ProcessedQuestion
from repro.retrieval import IndexedCorpus, Paragraph


def kw(text, priority=0):
    words = text.split()
    return Keyword(
        text=text,
        stems=tuple(stem(w) for w in words),
        priority=priority,
        is_phrase=len(words) > 1,
    )


def para(text, doc_id=0, index=0):
    return Paragraph(doc_id=doc_id, collection_id=0, index=index, text=text)


@pytest.fixture()
def recognizer():
    g = Gazetteer()
    g.add("Taj Mahal", EntityType.LOCATION)
    g.add("Agra", EntityType.LOCATION)
    g.add("Delhi", EntityType.LOCATION)
    g.add("Alexander Bell", EntityType.PERSON)
    return EntityRecognizer(g)


class TestQuestionProcessor:
    def test_produces_type_and_keywords(self, recognizer):
        qp = QuestionProcessor(recognizer)
        processed = qp.process(Question(0, "Where is the Taj Mahal?"))
        assert processed.answer_type is EntityType.LOCATION
        assert any(k.text == "Taj Mahal" for k in processed.keywords)

    def test_keyword_cap(self, recognizer):
        qp = QuestionProcessor(recognizer, max_keywords=2)
        processed = qp.process(
            Question(0, "Which distant ancient beautiful temple stands there?")
        )
        assert len(processed.keywords) <= 2


class TestParagraphScorer:
    def test_more_keywords_scores_higher(self):
        scorer = ParagraphScorer()
        kws = [kw("temple"), kw("garden", 1)]
        both = scorer.score_one(para("the temple garden is lovely"), [k.stems for k in kws])
        one = scorer.score_one(para("the temple is lovely"), [k.stems for k in kws])
        assert both.score > one.score
        assert both.keywords_present == 2
        assert one.keywords_present == 1

    def test_no_keywords_scores_zero(self):
        scorer = ParagraphScorer()
        sp = scorer.score_one(para("nothing relevant here"), [kw("temple").stems])
        assert sp.score == 0.0
        assert sp.keywords_present == 0

    def test_proximity_beats_distance(self):
        scorer = ParagraphScorer()
        kws = [kw("temple").stems, kw("garden").stems]
        near = scorer.score_one(para("temple garden stands"), kws)
        far = scorer.score_one(
            para("temple " + "filler " * 30 + "garden"), kws
        )
        assert near.score > far.score

    def test_phrase_matching_in_order(self):
        scorer = ParagraphScorer()
        phrase = kw("Taj Mahal")
        hit = scorer.score_one(para("the Taj Mahal gleams"), [phrase.stems])
        miss = scorer.score_one(para("Mahal Taj reversed words"), [phrase.stems])
        assert hit.keywords_present == 1
        assert miss.keywords_present == 0

    def test_nearest_occurrence_tie_takes_the_earlier(self):
        # aspen (the rarest keyword, first in order) anchors at token 4;
        # birch sits at 2 and 6, both two tokens away.  The earlier one
        # wins, so the window is cedar..aspen (5 tokens), not cedar..birch.
        scorer = ParagraphScorer()
        kws = [kw("aspen").stems, kw("birch").stems, kw("cedar").stems]
        sp = scorer.score_one(para("cedar x birch x aspen x birch"), kws)
        assert sp.keywords_present == 3
        assert sp.score == pytest.approx(50.0 * 3 + 10.0 / (1.0 + 5 / 3))
        assert sp.score != pytest.approx(50.0 * 3 + 10.0 / (1.0 + 7 / 3))

    @settings(max_examples=200, deadline=None)
    @given(
        positions=st.lists(
            st.lists(st.integers(0, 40), max_size=6).map(lambda p: sorted(set(p))),
            min_size=1,
            max_size=4,
        )
    )
    def test_nearest_occurrence_matches_linear_min(self, positions):
        """Bisecting for the nearest occurrence scores exactly as a linear
        ``min`` over distances (first minimum wins) does."""
        kstems = [("k%d" % k,) for k in range(len(positions))]

        def linear(kstems, positions):
            present = [k for k, pos in enumerate(positions) if pos]
            if not present:
                return 0.0, 0
            seq = sum(
                1
                for k in range(len(kstems) - 1)
                if positions[k] and positions[k + 1] and any(
                    p - len(kstems[k]) in set(positions[k]) or p - 1 in set(positions[k])
                    for p in positions[k + 1]
                )
            )
            rarest = min(present, key=lambda k: len(positions[k]))
            best = None
            for anchor in positions[rarest]:
                lo = hi = anchor
                for k in present:
                    if k != rarest:
                        nearest = min(positions[k], key=lambda p: abs(p - anchor))
                        lo, hi = min(lo, nearest), max(hi, nearest)
                best = hi - lo + 1 if best is None else min(best, hi - lo + 1)
            distance = 1.0 / (1.0 + best / len(present))
            return 50.0 * len(present) + 20.0 * seq + 10.0 * distance, len(present)

        assert ParagraphScorer._score_positions(kstems, positions) == linear(
            kstems, positions
        )

    def test_score_many(self, recognizer):
        scorer = ParagraphScorer()
        qp = QuestionProcessor(recognizer)
        processed = qp.process(Question(0, "Where is the Taj Mahal?"))
        scored = scorer.score(processed, [para("Taj Mahal is in Agra"), para("x")])
        assert len(scored) == 2


class TestParagraphRetriever:
    def test_one_collection_at_a_time_equals_the_full_fanout(
        self, shared_indexed_corpus, shared_pipeline, shared_questions
    ):
        """``profile_question`` visits collections one id at a time; that
        must add up to the default visit of every collection."""
        full = ParagraphRetriever(shared_indexed_corpus.reconfigured())
        single = ParagraphRetriever(shared_indexed_corpus.reconfigured())
        assert full.n_collections > 1
        for q in shared_questions[:12]:
            processed = shared_pipeline.qp.process(q)
            whole = full.retrieve(processed)
            parts = [
                single.retrieve(processed, collection_ids=[c])
                for c in range(single.n_collections)
            ]
            assert [p.key for p in whole.paragraphs] == [
                p.key for part in parts for p in part.paragraphs
            ]
            assert whole.per_collection == [
                w for part in parts for w in part.per_collection
            ]


class TestParagraphOrderer:
    def _scored(self, scores):
        return [
            ScoredParagraph(para(f"p{i}", doc_id=i), s, 1)
            for i, s in enumerate(scores)
        ]

    def test_descending_order(self):
        ordered = ParagraphOrderer(0.0).order(self._scored([1.0, 5.0, 3.0]))
        assert [sp.score for sp in ordered] == [5.0, 3.0, 1.0]

    def test_threshold_filters(self):
        ordered = ParagraphOrderer(0.5).order(self._scored([10.0, 6.0, 4.0]))
        assert [sp.score for sp in ordered] == [10.0, 6.0]

    def test_max_accepted_cap(self):
        ordered = ParagraphOrderer(0.0, max_accepted=2).order(
            self._scored([5, 4, 3, 2, 1])
        )
        assert len(ordered) == 2

    def test_all_zero_scores_yield_nothing(self):
        assert ParagraphOrderer(0.25).order(self._scored([0.0, 0.0])) == []

    def test_empty_input(self):
        assert ParagraphOrderer().order([]) == []

    def test_deterministic_tie_break(self):
        scored = self._scored([3.0, 3.0, 3.0])
        a = ParagraphOrderer(0.0).order(scored)
        b = ParagraphOrderer(0.0).order(list(reversed(scored)))
        assert [sp.paragraph.key for sp in a] == [sp.paragraph.key for sp in b]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ParagraphOrderer(threshold_fraction=1.5)
        with pytest.raises(ValueError):
            ParagraphOrderer(max_accepted=0)


class TestAnswerProcessor:
    def _processed(self, recognizer, text="Where is the Taj Mahal?"):
        return QuestionProcessor(recognizer).process(Question(0, text))

    def test_extracts_planted_answer(self, recognizer):
        ap = AnswerProcessor(recognizer)
        processed = self._processed(recognizer)
        sp = ScoredParagraph(
            para("The famous Taj Mahal is located in Agra and attracts visitors."),
            100.0,
            1,
        )
        answers = ap.extract(processed, [sp])
        assert answers
        assert answers[0].text == "Agra"
        assert answers[0].entity_type is EntityType.LOCATION

    def test_question_entity_not_returned_as_answer(self, recognizer):
        ap = AnswerProcessor(recognizer)
        processed = self._processed(recognizer)
        sp = ScoredParagraph(para("The Taj Mahal is in Agra."), 10.0, 1)
        answers = ap.extract(processed, [sp])
        assert all(a.text != "Taj Mahal" for a in answers)

    def test_candidate_near_keywords_beats_far(self, recognizer):
        ap = AnswerProcessor(recognizer)
        processed = self._processed(recognizer)
        text = (
            "The Taj Mahal stands in Agra today. "
            + "filler " * 40
            + "Delhi is a city."
        )
        answers = ap.extract(processed, [ScoredParagraph(para(text), 10.0, 1)])
        assert answers[0].text == "Agra"

    def test_n_answers_cap(self, recognizer):
        ap = AnswerProcessor(recognizer, n_answers=1)
        processed = self._processed(recognizer)
        sp = ScoredParagraph(para("Taj Mahal near Agra and Delhi region."), 10.0, 1)
        assert len(ap.extract(processed, [sp])) <= 1

    def test_short_and_long_windows(self, recognizer):
        ap = AnswerProcessor(recognizer)
        processed = self._processed(recognizer)
        text = "x " * 100 + "the Taj Mahal sits in Agra " + "y " * 100
        answers = ap.extract(processed, [ScoredParagraph(para(text), 10.0, 1)])
        best = answers[0]
        assert len(best.short.encode()) <= 60
        assert len(best.long.encode()) <= 260
        assert "Agra" in best.short
        assert "Agra" in best.long

    def test_no_candidates_no_answers(self, recognizer):
        ap = AnswerProcessor(recognizer)
        processed = self._processed(recognizer)
        sp = ScoredParagraph(para("nothing typed matches here at all"), 10.0, 1)
        assert ap.extract(processed, [sp]) == []

    def test_invalid_n_answers(self, recognizer):
        with pytest.raises(ValueError):
            AnswerProcessor(recognizer, n_answers=0)


class TestMergeAnswers:
    def _ans(self, text, score, key=(0, 0)):
        return Answer(
            text=text, short=text, long=text, score=score,
            paragraph_key=key, entity_type=EntityType.LOCATION,
        )

    def test_global_order(self):
        merged = merge_answers(
            [[self._ans("a", 1.0)], [self._ans("b", 3.0)], [self._ans("c", 2.0)]],
            n_answers=3,
        )
        assert [a.text for a in merged] == ["b", "c", "a"]

    def test_deduplication_keeps_best(self):
        merged = merge_answers(
            [[self._ans("Agra", 1.0, (0, 0))], [self._ans("agra", 5.0, (1, 0))]],
            n_answers=5,
        )
        assert len(merged) == 1
        assert merged[0].score == 5.0

    def test_cap(self):
        groups = [[self._ans(f"x{i}", float(i)) for i in range(10)]]
        assert len(merge_answers(groups, n_answers=3)) == 3

    def test_empty(self):
        assert merge_answers([], 5) == []
        assert merge_answers([[], []], 5) == []
