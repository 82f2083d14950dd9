"""Unified observability layer: spans, metrics, telemetry, attribution.

Four pieces, deliberately free of runtime dependencies on the
simulation core (so ``repro.core`` modules can import this package
without cycles):

* :mod:`~repro.observability.spans` — hierarchical span streams.  Every
  question produces a span tree (QP/PR/PS/PO/AP stages, dispatcher
  decisions, migrations, partition chunks and transfers, retries) and
  zero-duration instants are the Fig 7 event stream.
* :mod:`~repro.observability.metrics` — counters, gauges and bounded
  histograms (p50/p95/p99) behind a :class:`MetricsRegistry`, with the
  canonical metric names in :mod:`~repro.observability.names`.
* :mod:`~repro.observability.telemetry` — the one JSONL envelope
  (``telemetry/v3``): one writer, one record validator, one file
  validator and one reader for every span, sample, SLO and metrics
  record the repo writes, plus deterministic head sampling;
  :mod:`~repro.observability.exporters` renders the Chrome
  ``trace_event`` JSON (chrome://tracing / Perfetto).
* :mod:`~repro.observability.attribution` — folds each span tree into
  the paper's analytical overhead categories (compute, queueing,
  dispatch, migration, partition comms, monitoring) and cross-checks
  the totals against the Section 5 model (Eq 14-20).

``python -m repro observe`` (see :mod:`~repro.observability.observe`)
ties it together on a 16-node SEND/ISEND/RECV workload.
"""

from .attribution import (
    ATTRIBUTION_CATEGORIES,
    AttributionReport,
    QuestionAttribution,
    attribute_question,
    attribute_workload,
    format_attribution,
)
from .exporters import chrome_trace, validate_chrome_trace, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .observe import ObserveConfig, format_observe, run_observe
from .spans import Span, SpanCategory, SpanStream
from .telemetry import (
    TELEMETRY_SCHEMA,
    HeadSampler,
    TelemetryWriter,
    read_telemetry,
    span_to_json,
    validate_telemetry_file,
    validate_telemetry_line,
)

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "AttributionReport",
    "Counter",
    "Gauge",
    "HeadSampler",
    "Histogram",
    "MetricsRegistry",
    "ObserveConfig",
    "QuestionAttribution",
    "Span",
    "SpanCategory",
    "SpanStream",
    "TELEMETRY_SCHEMA",
    "TelemetryWriter",
    "attribute_question",
    "attribute_workload",
    "chrome_trace",
    "format_attribution",
    "format_observe",
    "read_telemetry",
    "run_observe",
    "span_to_json",
    "validate_chrome_trace",
    "validate_telemetry_file",
    "validate_telemetry_line",
    "write_chrome_trace",
]
