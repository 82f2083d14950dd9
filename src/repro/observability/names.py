"""Canonical metric names shared across the whole codebase.

Before this module, the same quantity went by different names in
different layers — :mod:`repro.retrieval.boolean` reported
``postings_scanned`` while the pipeline's work dict called it
``pr_postings`` and the cost model took a bare ``postings_scanned``
argument.  Every layer now imports its metric names from here, so the
registry, the JSON reports, and the cost model all speak one vocabulary.

Naming convention: ``<subsystem>.<noun>[.<qualifier>]``, dot-separated,
lower case.  Histograms carry a unit suffix (``_s`` seconds, ``_bytes``).

Every name here is written by some call site in ``src/`` (the tier-1
names lint checks both directions).  Numbers that live where they are
counted — ``BooleanRetriever.cache_stats`` (the stem bitset memo's
hits and misses), ``SHARED_STEM_CACHE``,
``AnswerProcessor.entity_layer_stats``, ``QAPipeline.last_batch_stats``
— get no registry name: workers keep no registry, and the reply record
is all the server hears.
"""

from __future__ import annotations

__all__ = [
    "AP_PARAGRAPH_BYTES",
    "DISPATCH_DECISIONS",
    "DISPATCH_FORCED_SINGLE",
    "DISPATCH_PARTITION_WIDTH",
    "DNS_ASSIGNMENTS",
    "DOC_BYTES_READ",
    "MONITOR_BROADCASTS",
    "MONITOR_BUSY_S",
    "N_KEYWORDS",
    "NODE_QUEUE_WAIT_S",
    "POSTINGS_SCANNED",
    "PARTITION_CHUNKS",
    "PARTITION_RETRY_ROUNDS",
    "QA_MIGRATIONS",
    "QA_MIGRATION_FAILURES",
    "RELAXATION_ROUNDS",
    "PS_PARAGRAPH_BYTES",
    "SERVING_ADMISSION_WAIT_S",
    "SERVING_BATCH_BUFFER_WAIT_S",
    "SERVING_BATCH_SIZE",
    "SERVING_DEADLINE_VIOLATIONS",
    "SERVING_LATENCY_S",
    "SERVING_QUEUE_DEPTH",
    "SERVING_SERVICE_S",
    "SERVING_SLO_STATE",
    "SERVING_SLO_TRANSITIONS",
    "SERVING_TRACES_SAMPLED",
    "SERVING_TRACE_SPANS",
    "SERVING_WORKER_ERRORS",
    "TASK_RETRIES",
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
#: Paragraph bytes flowing through PS and AP (pipeline work counters).
PS_PARAGRAPH_BYTES = "qa.ps.paragraph_bytes"
AP_PARAGRAPH_BYTES = "qa.ap.paragraph_bytes"
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
#: Load-monitor snapshots written (one per live node and interval) and
#: their monitoring busy time, Eq 14 per write.
MONITOR_BROADCASTS = "monitor.broadcasts"
MONITOR_BUSY_S = "monitor.busy_s"
#: Admission-queue wait per question hop (histogram, seconds).
NODE_QUEUE_WAIT_S = "node.queue_wait_s"

# -- serving layer (the real-pipeline server, PR 7) ---------------------------
#: Terminal outcomes get no counter: the server's ConservationLedger
#: counts them once, and the drain-time ``metrics`` telemetry record
#: carries it beside the registry.

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
#: Answered questions whose worker pipeline raised (counted inside the
#: ledger's ``answered``; the error text is on the ``ServeResponse``).
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
