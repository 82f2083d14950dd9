"""Unified observability layer: spans, metrics, exporters, attribution.

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
* :mod:`~repro.observability.exporters` — JSONL event logs and Chrome
  ``trace_event`` JSON (chrome://tracing / Perfetto), plus the schema
  validators the CI smoke job uses.
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
from .exporters import (
    chrome_trace,
    span_to_json,
    validate_chrome_trace,
    validate_jsonl_line,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    gauge_label,
    merge_snapshots,
)
from .observe import ObserveConfig, format_observe, run_observe
from .spans import Span, SpanCategory, SpanStream
from .telemetry import (
    TELEMETRY_SCHEMA,
    HeadSampler,
    TelemetryWriter,
    read_telemetry,
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
    "gauge_label",
    "merge_snapshots",
    "read_telemetry",
    "run_observe",
    "span_to_json",
    "validate_chrome_trace",
    "validate_jsonl_line",
    "validate_telemetry_file",
    "validate_telemetry_line",
    "write_chrome_trace",
    "write_jsonl",
]
