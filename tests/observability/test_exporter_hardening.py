"""Exporter hardening: empty streams, zero-sample histograms, stable pids."""

import json

import pytest

from repro.observability.exporters import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import SpanCategory, SpanStream
from repro.observability.telemetry import (
    TelemetryWriter,
    validate_telemetry_file,
    validate_telemetry_line,
)


def _serving_stream():
    """A stitched-shape stream: server lane (-1) plus two worker pids."""
    stream = SpanStream()
    for qid, pid in ((0, 4242), (1, 77)):
        root = stream.begin("serve", SpanCategory.TASK, qid, pid, float(qid))
        adm = stream.begin(
            "admission", SpanCategory.QUEUE, qid, -1, float(qid), parent=root
        )
        stream.end(adm, qid + 0.1)
        stream.end(root, qid + 0.5)
    return stream


class TestEmptyInputs:
    def test_empty_stream_jsonl_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.histogram("zero.samples")  # never observed
        path = tmp_path / "empty.jsonl"
        with TelemetryWriter(path, header={"label": "empty"}) as w:
            w.write_spans(SpanStream().spans)
            w.write_metrics(reg)
        assert validate_telemetry_file(path) == 2  # header + metrics, no spans

    def test_empty_stream_chrome_trace_validates(self):
        trace = chrome_trace(SpanStream())
        assert validate_chrome_trace(trace) == 0

    def test_zero_sample_histogram_serializes_finite(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        body = reg.to_dict()["h"]
        assert body["min"] == 0.0 and body["max"] == 0.0
        validate_telemetry_line({"record": "metrics", "metrics": reg.to_dict()})

    def test_non_finite_metric_rejected_by_validator(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_telemetry_line(
                {
                    "record": "metrics",
                    "metrics": {
                        "h": {"type": "histogram", "min": float("inf")}
                    },
                }
            )

    def test_non_finite_span_rejected(self):
        span = {
            "record": "span", "sid": 0, "parent": -1, "name": "x",
            "cat": "task", "qid": 0, "node": 0,
            "t0": float("nan"), "t1": 1.0,
        }
        with pytest.raises(ValueError, match="non-finite"):
            validate_telemetry_line(span)


class TestStablePids:
    def test_default_mode_keeps_raw_node_ids(self):
        trace = chrome_trace(_serving_stream())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        # Raw mode: pid == node_id, generic N<id> names, no sort index.
        assert {e["pid"] for e in meta} == {-1, 77, 4242}
        assert all(e["name"] == "process_name" for e in meta)
        names = {e["pid"]: e["args"]["name"] for e in meta}
        assert names[4242] == "N4242"

    def test_stable_mode_gives_contiguous_lanes(self):
        trace = chrome_trace(_serving_stream(), stable_pids=True)
        validate_chrome_trace(trace)
        name_meta = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # Sorted node ids -1 < 77 < 4242 map to lanes 0, 1, 2.
        assert name_meta == {0: "server", 1: "worker-77", 2: "worker-4242"}
        sort_meta = [
            e for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_sort_index"
        ]
        assert {e["args"]["sort_index"] for e in sort_meta} == {0, 1, 2}
        # Span events are remapped too: nothing references a raw pid.
        span_pids = {
            e["pid"] for e in trace["traceEvents"] if e["ph"] != "M"
        }
        assert span_pids <= {0, 1, 2}

    def test_process_names_override(self):
        trace = chrome_trace(
            _serving_stream(), stable_pids=True,
            process_names={-1: "front-end"},
        )
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "front-end" in names and "server" not in names

    def test_write_chrome_trace_stable(self, tmp_path):
        path = write_chrome_trace(
            _serving_stream(), tmp_path / "trace.json", stable_pids=True
        )
        validate_chrome_trace(json.loads(path.read_text()))
