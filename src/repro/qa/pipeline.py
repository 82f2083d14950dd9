"""The sequential Q/A pipeline (Figure 1), fully assembled.

``QAPipeline.answer`` runs QP -> PR -> PS -> PO -> AP on one question and
returns answers together with per-module wall-clock timings and work
counters.  The timings feed Table 2-style module analysis; the work
counters feed :mod:`repro.qa.profiles`, which converts real executed work
into simulated durations on the modelled 2001-era hardware.
"""

from __future__ import annotations

import time
import typing as t
from dataclasses import replace

from ..nlp.entities import EntityRecognizer
from ..observability.names import (
    AP_PARAGRAPH_BYTES,
    DOC_BYTES_READ,
    N_KEYWORDS,
    POSTINGS_SCANNED,
    PS_PARAGRAPH_BYTES,
    RELAXATION_ROUNDS,
)
from ..retrieval.collection import IndexedCorpus
from .answer_processing import AnswerProcessor
from .paragraph_ordering import ParagraphOrderer
from .paragraph_retrieval import ParagraphRetriever
from .paragraph_scoring import KeywordIdResolver, ParagraphScorer
from .question import BatchStats, ModuleTimings, QAResult, Question
from .question_processing import QuestionProcessor

__all__ = ["QAPipeline", "result_fingerprint"]


def result_fingerprint(result: QAResult) -> tuple[t.Any, ...]:
    """Everything of a result that two equivalent execution paths must
    reproduce bit for bit: the answers (text, clips, score, source
    paragraph, entity type), the retrieved/accepted counts, the paragraph
    ranks and the work counters.  Timings are left out.

    The equivalence tests (the pipeline vs the re-tokenize reference in
    tests/reference.py, batched vs serial) compare results through this.
    """
    return (
        tuple(
            (a.text, a.short, a.long, a.score, a.paragraph_key, a.entity_type.value)
            for a in result.answers
        ),
        result.n_retrieved,
        result.n_accepted,
        result.paragraph_ranks,
        tuple(sorted(result.work.items())),
    )


class QAPipeline:
    """End-to-end sequential question answering.

    Parameters
    ----------
    indexed:
        The indexed corpus to search.
    recognizer:
        Entity recognizer shared by QP (keywords) and AP (candidates).
    n_answers:
        Answers returned per question (the paper's ``n_a``).
    threshold_fraction / max_accepted:
        PO acceptance policy.

    PS and AP read every paragraph through its term view in the index
    (:meth:`IndexedCorpus.term_lookup`).  PR visits every sub-collection
    for every question, as the paper's system does.
    """

    def __init__(
        self,
        indexed: IndexedCorpus,
        recognizer: EntityRecognizer,
        n_answers: int = 5,
        threshold_fraction: float = 0.25,
        max_accepted: int = 600,
    ) -> None:
        self.indexed = indexed
        self.recognizer = recognizer
        self.qp = QuestionProcessor(recognizer)
        self.pr = ParagraphRetriever(indexed)
        self.ps = ParagraphScorer(term_lookup=indexed.term_lookup)
        self.po = ParagraphOrderer(threshold_fraction, max_accepted)
        self.ap = AnswerProcessor(
            recognizer, n_answers=n_answers, term_lookup=indexed.term_lookup
        )
        #: Sharing/amortization stats of the most recent ``answer_batch``.
        self.last_batch_stats: BatchStats | None = None

    def answer(self, question: Question | str, qid: int = 0) -> QAResult:
        """Answer one question, timing each module.

        This is the only QP -> PR -> PS -> PO -> AP pass:
        :meth:`answer_batch` runs it once per distinct question.
        """
        if isinstance(question, str):
            question = Question(qid=qid, text=question)
        timings = ModuleTimings()
        work: dict[str, float] = {}

        t0 = time.perf_counter()
        processed = self.qp.process(question)
        timings.qp = time.perf_counter() - t0

        t0 = time.perf_counter()
        pr_result = self.pr.retrieve(processed)
        timings.pr = time.perf_counter() - t0
        work[POSTINGS_SCANNED] = float(pr_result.postings_scanned)
        work[DOC_BYTES_READ] = float(pr_result.doc_bytes_read)
        work[RELAXATION_ROUNDS] = float(
            sum(w.relaxation_rounds for w in pr_result.per_collection)
        )

        # Keyword -> vocabulary-id resolution happens once per question
        # and is shared by PS and AP.
        resolver = KeywordIdResolver([kw.stems for kw in processed.keywords])
        t0 = time.perf_counter()
        scored = self.ps.score(processed, pr_result.paragraphs, resolver)
        timings.ps = time.perf_counter() - t0
        work[PS_PARAGRAPH_BYTES] = float(
            sum(p.size_bytes for p in pr_result.paragraphs)
        )

        t0 = time.perf_counter()
        accepted = self.po.order(scored)
        timings.po = time.perf_counter() - t0

        t0 = time.perf_counter()
        answers = self.ap.extract(processed, accepted, resolver)
        timings.ap = time.perf_counter() - t0
        work[AP_PARAGRAPH_BYTES] = float(
            sum(sp.paragraph.size_bytes for sp in accepted)
        )
        work[N_KEYWORDS] = float(len(processed.keywords))

        return QAResult(
            processed=processed,
            answers=answers,
            n_retrieved=len(pr_result.paragraphs),
            n_accepted=len(accepted),
            timings=timings,
            work=work,
            paragraph_ranks=tuple(sp.paragraph.key for sp in accepted),
        )

    def answer_batch(
        self,
        questions: t.Sequence[Question | str],
        qids: t.Sequence[int] | None = None,
    ) -> list[QAResult]:
        """Answer a batch: one :meth:`answer` per distinct question text,
        in first-occurrence order, one result per question in order.

        A repeated question gets its first occurrence's result under its
        own qid, with zero module timings: nothing ran for it.  Results
        are those of ``[self.answer(q) for q in questions]``; the caches
        see a serial pass over the distinct questions only.  Sharing
        accounting lands in :attr:`last_batch_stats`.
        """
        firsts: dict[str, QAResult] = {}
        results: list[QAResult] = []
        for i, q in enumerate(questions):
            if isinstance(q, str):
                q = Question(qid=qids[i] if qids is not None else 0, text=q)
            first = firsts.get(q.text)
            if first is None:
                first = firsts[q.text] = self.answer(q)
                results.append(first)
            else:
                results.append(
                    replace(
                        first,
                        processed=replace(first.processed, question=q),
                        answers=list(first.answers),
                        timings=ModuleTimings(),
                        work=dict(first.work),
                    )
                )
        self.last_batch_stats = BatchStats(
            n_questions=len(results), n_distinct=len(firsts)
        )
        return results
