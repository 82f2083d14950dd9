"""Batched cross-question execution — the batch planner/executor.

A Zipf-popular question stream re-selects the same keywords, re-fetches
the same posting lists and re-scores the same paragraphs question after
question.  :func:`execute_batch` runs a batch of concurrent questions
through the pipeline's one walk (:meth:`QAPipeline.answer` — a first
occurrence *is* that walk, there is no second copy of it here) with two
amortizations, both **bit-identical** to serial execution
(``[pipeline.answer(q) for q in batch]``), which
``tests/qa/test_batch_equivalence.py`` and its Hypothesis properties
enforce:

1. **One execution per distinct question.**  Duplicate questions in the
   batch reuse the first occurrence's :class:`~repro.qa.question.QAResult`
   (its :class:`~repro.qa.question.ProcessedQuestion` re-wrapped with
   their own qid) instead of re-running the walk.

2. **Shared posting fetches.**  While the batch is active every
   :class:`~repro.retrieval.boolean.BooleanRetriever` resolves posting
   lists through a batch-scoped :class:`~repro.retrieval.boolean.SharedPostings`
   map, so each collection fetches each distinct stem once per batch —
   the Zipf head makes cross-question sharing common.  The fetch count
   saved is the ``retrieval.batch.postings_shared`` metric.

Correctness under caching is the subtle part: serial execution of a
duplicate question still *touches* the shared stem cache (QP keyword
selection, AP candidate filtering) and the per-collection conjunction
LRUs (one get per relaxation round), and those touches move LRU state
and hit/miss counters.  The batch path therefore records, during a
question's first execution, (a) the stem-cache lookup sequence and
(b) the conjunction key of every relaxation round per collection, and
**replays** both for each duplicate — recomputing and re-inserting on a
cache miss exactly as serial would.  Since every recomputation is a pure
function of the key, the replayed counters, LRU orders and logical work
charges equal serial execution under any eviction pattern, while the
expensive deterministic results (paragraph extraction, scoring, answer
windows) are reused.
"""

from __future__ import annotations

import time
import typing as t
from dataclasses import dataclass

from ..nlp.stemming import SHARED_STEM_CACHE
from ..observability.names import POSTINGS_SCANNED
from ..retrieval.boolean import SharedPostings
from ..retrieval.selection import SelectionDecision
from .question import ModuleTimings, ProcessedQuestion, QAResult, Question

if t.TYPE_CHECKING:  # pragma: no cover
    from .pipeline import QAPipeline

__all__ = ["BatchStats", "execute_batch"]


@dataclass(slots=True)
class BatchStats:
    """Sharing/amortization accounting for one executed batch."""

    #: Questions in the batch and distinct question texts executed.
    n_questions: int = 0
    n_distinct: int = 0
    #: Posting lists resolved against the indexes vs served from the
    #: batch-shared map (summed over collections).
    postings_fetches: int = 0
    postings_shared: int = 0
    #: Total logical postings charge across the batch (duplicates charge
    #: the same work as serial execution — the cost model is unchanged).
    postings_scanned: float = 0.0
    #: Wall seconds spent in the PR phase across the batch.
    pr_wall_s: float = 0.0

    @property
    def sharing_factor(self) -> float:
        """Questions per distinct execution (1.0 = no sharing)."""
        return self.n_questions / self.n_distinct if self.n_distinct else 1.0

    @property
    def amortized_postings_scanned(self) -> float:
        """Logical postings charge per batched question."""
        return (
            self.postings_scanned / self.n_questions if self.n_questions else 0.0
        )

    def to_dict(self) -> dict[str, float]:
        return {
            "n_questions": self.n_questions,
            "n_distinct": self.n_distinct,
            "sharing_factor": self.sharing_factor,
            "postings_fetches": self.postings_fetches,
            "postings_shared": self.postings_shared,
            "postings_scanned": self.postings_scanned,
            "amortized_postings_scanned": self.amortized_postings_scanned,
        }


@dataclass(slots=True)
class _QuestionRecord:
    """Everything a duplicate question needs from its first execution."""

    #: The first execution's result — the (deterministic) outputs to reuse.
    result: QAResult
    #: Raw words passed through the shared stem cache (QP + AP).
    stem_trace: list[str]
    #: Conjunction keys per relaxation round, per collection — the
    #: conjunction-cache replay script.  Pruned (unvisited) collections
    #: hold an empty list: their replay is a no-op, exactly matching
    #: serial execution under the same selector.
    rounds_per_collection: list[list[tuple[str, ...]]]
    #: The collection selector's routing decision (None = broadcast),
    #: taken once per *distinct* question.
    decision: SelectionDecision | None


def _answer_first(
    pipeline: "QAPipeline", question: Question, stats: BatchStats
) -> _QuestionRecord:
    """First occurrence: the pipeline's own walk, with trace recording."""
    rounds_per_collection: list[list[tuple[str, ...]]] = [
        [] for _ in pipeline.indexed.retrievers
    ]
    SHARED_STEM_CACHE.start_trace()
    try:
        result = pipeline.answer(question, round_trace=rounds_per_collection)
    finally:
        stem_trace = SHARED_STEM_CACHE.stop_trace()
    stats.pr_wall_s += result.timings.pr
    return _QuestionRecord(
        result=result,
        stem_trace=stem_trace,
        rounds_per_collection=rounds_per_collection,
        decision=pipeline.pr.last_decision,
    )


def _answer_repeat(
    pipeline: "QAPipeline",
    question: Question,
    record: _QuestionRecord,
    stats: BatchStats,
) -> QAResult:
    """Duplicate question: replay cache touches, reuse the outputs.

    The stem-trace replay covers QP keyword selection and AP candidate
    filtering (both funnel through :data:`SHARED_STEM_CACHE`); the
    conjunction replay issues the recorded relaxation-round gets against
    each collection's LRU, recomputing evicted entries.  All other
    per-question state transitions of serial execution are pure
    recomputations of these recorded outputs.
    """
    first = record.result
    timings = ModuleTimings()
    t0 = time.perf_counter()
    processed = ProcessedQuestion(
        question=question,
        answer_type=first.processed.answer_type,
        keywords=first.processed.keywords,
    )
    SHARED_STEM_CACHE.replay(record.stem_trace)
    timings.qp = time.perf_counter() - t0

    t0 = time.perf_counter()
    retrievers = pipeline.indexed.retrievers
    for cid, rounds in enumerate(record.rounds_per_collection):
        retrievers[cid].replay_rounds(rounds)
    pr = time.perf_counter() - t0
    timings.pr = pr
    stats.pr_wall_s += pr

    work = dict(first.work)
    if pipeline.metrics is not None:
        pipeline._record(work)
        pipeline._record_selection(record.decision)
    return QAResult(
        processed=processed,
        answers=list(first.answers),
        n_retrieved=first.n_retrieved,
        n_accepted=first.n_accepted,
        timings=timings,
        work=work,
        paragraph_ranks=first.paragraph_ranks,
    )


def execute_batch(
    pipeline: "QAPipeline", questions: t.Sequence[Question]
) -> tuple[list[QAResult], BatchStats]:
    """Answer ``questions`` as one batch; results match serial bit-for-bit.

    The contract — enforced by ``tests/qa/test_batch_equivalence.py`` —
    is ``execute_batch(p, qs)[0]`` fingerprint-equal to
    ``[p.answer(q) for q in qs]`` run from the same starting cache state,
    including conjunction/stem cache statistics afterwards.
    """
    stats = BatchStats(n_questions=len(questions))
    if not questions:
        return [], stats

    retrievers = pipeline.indexed.retrievers
    shared = [SharedPostings() for _ in retrievers]
    records: dict[str, _QuestionRecord] = {}
    results: list[QAResult] = []
    for r, s in zip(retrievers, shared):
        r.begin_batch(s)
    try:
        for question in questions:
            record = records.get(question.text)
            if record is None:
                record = _answer_first(pipeline, question, stats)
                records[question.text] = record
                results.append(record.result)
            else:
                results.append(
                    _answer_repeat(pipeline, question, record, stats)
                )
    finally:
        for r in retrievers:
            r.end_batch()

    stats.n_distinct = len(records)
    stats.postings_fetches = sum(s.fetches for s in shared)
    stats.postings_shared = sum(s.shared for s in shared)
    stats.postings_scanned = sum(r.work[POSTINGS_SCANNED] for r in results)
    return results, stats
