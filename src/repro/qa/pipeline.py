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

from ..nlp.entities import EntityRecognizer
from ..nlp.stemming import SHARED_STEM_CACHE
from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    AP_ENTITY_LAYER_HITS,
    AP_ENTITY_LAYER_MISSES,
    AP_ENTITY_LAYER_PARAGRAPHS,
    AP_PARAGRAPH_BYTES,
    CONJUNCTION_CACHE_HITS,
    CONJUNCTION_CACHE_MISSES,
    DOC_BYTES_READ,
    INDEX_MEMORY_BYTES,
    N_KEYWORDS,
    POSTINGS_SCANNED,
    PS_PARAGRAPH_BYTES,
    RELAXATION_ROUNDS,
    RETRIEVAL_BATCH_DISTINCT,
    RETRIEVAL_BATCH_POSTINGS_FETCHES,
    RETRIEVAL_BATCH_POSTINGS_SHARED,
    RETRIEVAL_BATCH_QUESTIONS,
    RETRIEVAL_BATCH_SHARING_FACTOR,
    SELECTOR_DECISIONS,
    SELECTOR_FALLBACKS,
    SELECTOR_PRUNE_RATE,
    SELECTOR_PRUNED,
    SELECTOR_SELECTED,
    SELECTOR_SKETCH_BYTES,
    STEM_CACHE_HITS,
    STEM_CACHE_MISSES,
    VOCABULARY_SIZE,
)
from ..retrieval.collection import IndexedCorpus
from ..retrieval.selection import CollectionSelector, SelectionDecision
from .answer_processing import AnswerProcessor
from .batch import BatchStats, execute_batch
from .paragraph_ordering import ParagraphOrderer
from .paragraph_retrieval import ParagraphRetriever
from .paragraph_scoring import KeywordIdResolver, ParagraphScorer
from .question import ModuleTimings, QAResult, Question
from .question_processing import QuestionProcessor

__all__ = ["QAPipeline", "result_fingerprint"]


def result_fingerprint(result: QAResult) -> tuple[t.Any, ...]:
    """Everything of a result that two equivalent execution paths must
    reproduce bit for bit: the answers (text, clips, score, source
    paragraph, entity type), the retrieved/accepted counts, the paragraph
    ranks and the work counters.  Timings are left out.

    The equivalence tests (fast path vs re-tokenize oracle, batched vs
    serial) compare results through this.
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
    use_term_index:
        Route PS and AP through the index's precomputed paragraph term
        layer, and AP through its per-paragraph entity layer (the fast
        path).  ``False`` forces the re-tokenize, re-recognize path — the
        reference implementation for ``tests/qa/test_scoring_equivalence.py``
        and ``tests/qa/test_entity_layer.py``.
    metrics:
        Optional registry receiving the work counters under their
        canonical :mod:`repro.observability.names` — one vocabulary for
        the retriever, the work dict, and the JSON reports.
    selector:
        Optional :class:`~repro.retrieval.selection.CollectionSelector`
        routing the PR fan-out through per-collection term sketches
        instead of broadcasting (trades recall for pruned fan-out).
        Decisions are recorded under the ``retrieval.selector.*`` metric
        names.
    """

    def __init__(
        self,
        indexed: IndexedCorpus,
        recognizer: EntityRecognizer,
        n_answers: int = 5,
        threshold_fraction: float = 0.25,
        max_accepted: int = 600,
        use_term_index: bool = True,
        metrics: MetricsRegistry | None = None,
        selector: CollectionSelector | None = None,
    ) -> None:
        self.indexed = indexed
        self.recognizer = recognizer
        self.use_term_index = use_term_index
        self.metrics = metrics
        term_lookup = indexed.term_lookup if use_term_index else None
        self.qp = QuestionProcessor(recognizer)
        self.pr = ParagraphRetriever(indexed, selector=selector)
        self.ps = ParagraphScorer(term_lookup=term_lookup)
        self.po = ParagraphOrderer(threshold_fraction, max_accepted)
        self.ap = AnswerProcessor(
            recognizer, n_answers=n_answers, term_lookup=term_lookup
        )
        #: Sharing/amortization stats of the most recent ``answer_batch``.
        self.last_batch_stats: BatchStats | None = None

    def answer(
        self,
        question: Question | str,
        qid: int = 0,
        round_trace: list[list[tuple[str, ...]]] | None = None,
    ) -> QAResult:
        """Answer one question, timing each module.

        This is the only QP -> PR -> PS -> PO -> AP pass: the batch
        executor runs it too, handing in ``round_trace`` (one empty list
        per collection, see :meth:`ParagraphRetriever.retrieve`) to
        collect the conjunction-cache replay script for duplicates.
        """
        if isinstance(question, str):
            question = Question(qid=qid, text=question)
        timings = ModuleTimings()
        work: dict[str, float] = {}

        t0 = time.perf_counter()
        processed = self.qp.process(question)
        timings.qp = time.perf_counter() - t0

        t0 = time.perf_counter()
        pr_result = self.pr.retrieve(processed, round_trace=round_trace)
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
        if self.metrics is not None:
            self._record(work)
            self._record_selection(self.pr.last_decision)

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
        """Answer a batch of questions with cross-question amortization.

        Bit-identical to ``[self.answer(q) for q in questions]`` — same
        answers, paragraph ranks, work counters and cache statistics —
        because a first occurrence *is* one :meth:`answer` walk; what the
        batch adds is that duplicates replay their first execution
        instead of re-running it and posting lists are fetched once per
        distinct stem per collection (see :mod:`repro.qa.batch`).  Sharing
        accounting lands in :attr:`last_batch_stats` and, when a metrics
        registry is attached, under the ``retrieval.batch.*`` names.
        """
        items: list[Question] = []
        for i, q in enumerate(questions):
            if isinstance(q, str):
                q = Question(qid=qids[i] if qids is not None else 0, text=q)
            items.append(q)
        results, stats = execute_batch(self, items)
        self.last_batch_stats = stats
        if self.metrics is not None and items:
            self.metrics.inc(RETRIEVAL_BATCH_QUESTIONS, float(stats.n_questions))
            self.metrics.inc(RETRIEVAL_BATCH_DISTINCT, float(stats.n_distinct))
            self.metrics.inc(
                RETRIEVAL_BATCH_POSTINGS_FETCHES, float(stats.postings_fetches)
            )
            self.metrics.inc(
                RETRIEVAL_BATCH_POSTINGS_SHARED, float(stats.postings_shared)
            )
            self.metrics.observe(
                RETRIEVAL_BATCH_SHARING_FACTOR, stats.sharing_factor
            )
        return results

    def _record(self, work: dict[str, float]) -> None:
        """Mirror the work counters into the registry (canonical names)."""
        assert self.metrics is not None
        for name in (
            POSTINGS_SCANNED,
            DOC_BYTES_READ,
            RELAXATION_ROUNDS,
            PS_PARAGRAPH_BYTES,
            AP_PARAGRAPH_BYTES,
        ):
            self.metrics.inc(name, work[name])
        self.metrics.observe(N_KEYWORDS, work[N_KEYWORDS])
        # Cache totals are cumulative on the cache objects -> gauges.
        hits = misses = 0
        for r in self.indexed.retrievers:
            stats = r.cache_stats
            hits += stats["hits"]
            misses += stats["misses"]
        self.metrics.gauge(CONJUNCTION_CACHE_HITS).set(float(hits))
        self.metrics.gauge(CONJUNCTION_CACHE_MISSES).set(float(misses))
        self.metrics.gauge(STEM_CACHE_HITS).set(float(SHARED_STEM_CACHE.hits))
        self.metrics.gauge(STEM_CACHE_MISSES).set(
            float(SHARED_STEM_CACHE.misses)
        )
        layer = self.ap.entity_layer_stats
        self.metrics.gauge(AP_ENTITY_LAYER_HITS).set(float(layer["hits"]))
        self.metrics.gauge(AP_ENTITY_LAYER_MISSES).set(float(layer["misses"]))
        self.metrics.gauge(AP_ENTITY_LAYER_PARAGRAPHS).set(
            float(layer["paragraphs"])
        )
        # Packed-index residency: structural bytes of the array-backed
        # layers plus the size of the vocabulary coding their ids.
        self.metrics.gauge(INDEX_MEMORY_BYTES).set(
            float(sum(ix.stats.memory_bytes for ix in self.indexed.indexes))
        )
        if self.indexed.indexes:
            self.metrics.gauge(VOCABULARY_SIZE).set(
                float(len(self.indexed.indexes[0].vocab))
            )

    def _record_selection(self, decision: SelectionDecision | None) -> None:
        """Mirror one routing decision into the registry (no-op without
        a selector — broadcast fan-outs record nothing)."""
        assert self.metrics is not None
        if decision is None:
            return
        self.metrics.inc(SELECTOR_DECISIONS)
        self.metrics.inc(SELECTOR_SELECTED, float(len(decision.selected)))
        self.metrics.inc(SELECTOR_PRUNED, float(len(decision.pruned)))
        if decision.fallback:
            self.metrics.inc(SELECTOR_FALLBACKS)
        self.metrics.observe(SELECTOR_PRUNE_RATE, decision.prune_rate)
        if self.pr.selector is not None:
            self.metrics.gauge(SELECTOR_SKETCH_BYTES).set(
                float(self.pr.selector.sketch_bytes())
            )
