"""Canonical metric names shared across the whole codebase.

Before this module, the same quantity went by different names in
different layers — :mod:`repro.retrieval.boolean` reported
``postings_scanned`` while the pipeline's work dict called it
``pr_postings`` and the cost model took a bare ``postings_scanned``
argument.  Every layer now imports its metric names from here, so the
registry, the JSON reports, and the cost model all speak one vocabulary.

Naming convention: ``<subsystem>.<noun>[.<qualifier>]``, dot-separated,
lower case.  Histograms carry a unit suffix (``_s`` seconds, ``_bytes``).
"""

from __future__ import annotations

__all__ = [
    "AP_ENTITY_LAYER_HITS",
    "AP_ENTITY_LAYER_MISSES",
    "AP_ENTITY_LAYER_PARAGRAPHS",
    "AP_PARAGRAPH_BYTES",
    "CONJUNCTION_CACHE_HITS",
    "CONJUNCTION_CACHE_MISSES",
    "DISPATCH_DECISIONS",
    "DISPATCH_FORCED_SINGLE",
    "DISPATCH_PARTITION_WIDTH",
    "DNS_ASSIGNMENTS",
    "DOC_BYTES_READ",
    "INDEX_ATTACH_S",
    "INDEX_BUILD_S",
    "INDEX_MEMORY_BYTES",
    "MONITOR_BROADCASTS",
    "MONITOR_BUSY_S",
    "MONITOR_SHARD_PUBLISHES",
    "N_KEYWORDS",
    "NODE_QUEUE_WAIT_S",
    "POSTINGS_SCANNED",
    "PARTITION_CHUNKS",
    "PARTITION_RETRY_ROUNDS",
    "QA_MIGRATIONS",
    "QA_MIGRATION_FAILURES",
    "RELAXATION_ROUNDS",
    "RETRIEVAL_BATCH_DISTINCT",
    "RETRIEVAL_BATCH_POSTINGS_FETCHES",
    "RETRIEVAL_BATCH_POSTINGS_SHARED",
    "RETRIEVAL_BATCH_QUESTIONS",
    "RETRIEVAL_BATCH_SHARING_FACTOR",
    "SELECTOR_DECISIONS",
    "SELECTOR_FALLBACKS",
    "SELECTOR_PRUNED",
    "SELECTOR_PRUNE_RATE",
    "SELECTOR_SELECTED",
    "SELECTOR_SKETCH_BYTES",
    "PS_PARAGRAPH_BYTES",
    "SERVING_ADMISSION_WAIT_S",
    "SERVING_ANSWERED",
    "SERVING_BATCH_BUFFER_WAIT_S",
    "SERVING_BATCH_SIZE",
    "SERVING_DEADLINE_VIOLATIONS",
    "SERVING_DRAINED",
    "SERVING_LATENCY_S",
    "SERVING_QUEUE_DEPTH",
    "SERVING_SERVICE_S",
    "SERVING_SHED",
    "SERVING_SHED_PREFIX",
    "SERVING_SLO_STATE",
    "SERVING_SLO_TRANSITIONS",
    "SERVING_SUBMITTED",
    "SERVING_TRACES_SAMPLED",
    "SERVING_TRACE_SPANS",
    "SERVING_WORKER_ERRORS",
    "STEM_CACHE_HITS",
    "STEM_CACHE_MISSES",
    "TASK_RETRIES",
    "VOCABULARY_SIZE",
]

# -- retrieval / pipeline work counters (the PR-phase cost drivers) ----------
#: Posting-list entries scanned by Boolean conjunctions (was
#: ``postings_scanned`` in the retriever, ``pr_postings`` in the pipeline).
POSTINGS_SCANNED = "retrieval.postings_scanned"
#: Document bytes read for paragraph extraction (was ``doc_bytes_read`` /
#: ``pr_doc_bytes``).
DOC_BYTES_READ = "retrieval.doc_bytes_read"
#: Keyword-relaxation rounds of the Falcon retrieval loop.
RELAXATION_ROUNDS = "retrieval.relaxation_rounds"
#: Conjunction-cache (PR 2) hit/miss counters.
CONJUNCTION_CACHE_HITS = "retrieval.conjunction_cache.hits"
CONJUNCTION_CACHE_MISSES = "retrieval.conjunction_cache.misses"
#: Shared stem-cache (PR 2) hit/miss counters.
STEM_CACHE_HITS = "nlp.stem_cache.hits"
STEM_CACHE_MISSES = "nlp.stem_cache.misses"
#: Packed index data plane (PR 5): resident bytes of the array-backed
#: index structures, build-vs-attach seconds, and interned vocabulary size.
INDEX_MEMORY_BYTES = "retrieval.index.memory_bytes"
INDEX_BUILD_S = "retrieval.index.build_s"
INDEX_ATTACH_S = "retrieval.index.attach_s"
VOCABULARY_SIZE = "nlp.vocabulary.size"
#: Batched cross-question execution (PR 7): questions entering
#: ``QAPipeline.answer_batch``, distinct questions actually executed
#: (duplicates replay their first execution's cache touches), posting
#: lists resolved cold vs served from the batch-shared map, and the
#: per-batch ``questions / distinct`` sharing factor (histogram).
RETRIEVAL_BATCH_QUESTIONS = "retrieval.batch.questions"
RETRIEVAL_BATCH_DISTINCT = "retrieval.batch.distinct_questions"
RETRIEVAL_BATCH_POSTINGS_FETCHES = "retrieval.batch.postings_fetches"
RETRIEVAL_BATCH_POSTINGS_SHARED = "retrieval.batch.postings_shared"
RETRIEVAL_BATCH_SHARING_FACTOR = "retrieval.batch.sharing_factor"
#: Federated collection selection (PR 11): routing decisions taken by a
#: :class:`~repro.retrieval.selection.CollectionSelector`, collections
#: kept vs pruned by those decisions, predictive decisions that fell
#: back to exhaustive search, the per-decision prune-rate distribution
#: (histogram), and the resident bytes of the mediator's sketches (gauge).
SELECTOR_DECISIONS = "retrieval.selector.decisions"
SELECTOR_SELECTED = "retrieval.selector.selected_collections"
SELECTOR_PRUNED = "retrieval.selector.pruned_collections"
SELECTOR_FALLBACKS = "retrieval.selector.fallbacks"
SELECTOR_PRUNE_RATE = "retrieval.selector.prune_rate"
SELECTOR_SKETCH_BYTES = "retrieval.selector.sketch_bytes"
#: Paragraph bytes flowing through PS and AP (pipeline work counters).
PS_PARAGRAPH_BYTES = "qa.ps.paragraph_bytes"
AP_PARAGRAPH_BYTES = "qa.ap.paragraph_bytes"
#: AP's per-paragraph entity layer (PR 13): paragraph visits served from
#: kept spans vs visits that ran the recognizer, and paragraphs held
#: (cumulative on the ``AnswerProcessor`` -> gauges, like the caches).
AP_ENTITY_LAYER_HITS = "qa.ap.entity_layer.hits"
AP_ENTITY_LAYER_MISSES = "qa.ap.entity_layer.misses"
AP_ENTITY_LAYER_PARAGRAPHS = "qa.ap.entity_layer.paragraphs"
#: Keywords selected by QP.
N_KEYWORDS = "qa.qp.n_keywords"

# -- distributed-system counters ---------------------------------------------
#: DNS front-end question assignments.
DNS_ASSIGNMENTS = "frontend.assignments"
#: Question-dispatcher decisions / migrations / failed hand-offs.
DISPATCH_DECISIONS = "dispatch.decisions"
QA_MIGRATIONS = "dispatch.qa_migrations"
QA_MIGRATION_FAILURES = "dispatch.qa_migration_failures"
#: Meta-scheduler outcomes (per decision).
DISPATCH_FORCED_SINGLE = "scheduler.forced_single"
DISPATCH_PARTITION_WIDTH = "scheduler.partition_width"
#: Partition distribution-loop activity (chunks executed, recovery rounds).
PARTITION_CHUNKS = "partition.chunks"
PARTITION_RETRY_ROUNDS = "partition.retry_rounds"
#: Front-end re-admissions of questions whose host died (PR 1 retry path).
TASK_RETRIES = "task.frontend_retries"
#: Load-monitor broadcasts and total monitoring busy time (CPU + network).
MONITOR_BROADCASTS = "monitor.broadcasts"
MONITOR_BUSY_S = "monitor.busy_s"
#: Sharded monitoring (PR 9): merged-table broadcasts by shard aggregators.
MONITOR_SHARD_PUBLISHES = "monitor.shard_publishes"
#: Admission-queue wait per question hop (histogram, seconds).
NODE_QUEUE_WAIT_S = "node.queue_wait_s"

# -- serving layer (the real-pipeline server, PR 7) ---------------------------
#: Terminal-outcome counters; conservation requires
#: ``answered + shed + drained == submitted`` exactly.
SERVING_SUBMITTED = "serving.submitted"
SERVING_ANSWERED = "serving.answered"
SERVING_SHED = "serving.shed"
SERVING_DRAINED = "serving.drained"
#: Per-reason shed counters: ``serving.shed.<reason>`` (queue_full,
#: deadline, rate_limited, draining — the ShedReason values).
SERVING_SHED_PREFIX = "serving.shed."
#: Accepted questions not yet completed (gauge).
SERVING_QUEUE_DEPTH = "serving.queue_depth"
#: Measured wait between submit and worker pickup (histogram, seconds)
#: — the serving counterpart of NODE_QUEUE_WAIT_S, and the quantity the
#: attribution pass buckets as ``queueing``.
SERVING_ADMISSION_WAIT_S = "serving.admission_wait_s"
#: End-to-end submit-to-answer latency of accepted questions (histogram).
SERVING_LATENCY_S = "serving.latency_s"
#: Pipeline execution time inside the worker (histogram, seconds).
SERVING_SERVICE_S = "serving.service_s"
#: Answered questions whose worker pipeline raised (counted inside
#: ``serving.answered``; the error text is on the ``ServeResponse``).
SERVING_WORKER_ERRORS = "serving.worker_errors"
#: The micro-batcher's line in the ledger, observed once per flushed
#: unit: questions in the unit, and how long its oldest request sat in
#: the buffer (histograms; that wait is part of ``admission_wait_s``).
SERVING_BATCH_SIZE = "serving.batch.size"
SERVING_BATCH_BUFFER_WAIT_S = "serving.batch.buffer_wait_s"

# -- cross-process telemetry plane (PR 8) -------------------------------------
#: Questions whose worker-side detail trace was head-sampled.
SERVING_TRACES_SAMPLED = "serving.traces_sampled"
#: Spans the server wrote under sampled questions' ``service`` spans
#: (``worker`` root and module children) from the reply's timings.
SERVING_TRACE_SPANS = "serving.trace_spans"
#: Answered questions whose measured latency exceeded their sojourn
#: budget (the admission deadline, enforced retrospectively).
SERVING_DEADLINE_VIOLATIONS = "serving.deadline_violations"
#: SLO monitor state transitions (counter) and current state (gauge:
#: 0 = ok, 1 = warn, 2 = breach).
SERVING_SLO_TRANSITIONS = "serving.slo.transitions"
SERVING_SLO_STATE = "serving.slo.state"
