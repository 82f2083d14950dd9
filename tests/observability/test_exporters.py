"""Exporter round-trips and schema validation."""

import json

import pytest

from repro.observability import (
    MetricsRegistry,
    SpanCategory,
    SpanStream,
    TelemetryWriter,
    chrome_trace,
    read_telemetry,
    span_to_json,
    validate_chrome_trace,
    validate_telemetry_file,
    validate_telemetry_line,
    write_chrome_trace,
)


def _sample_stream() -> SpanStream:
    s = SpanStream()
    root = s.begin("question", SpanCategory.TASK, qid=7, node_id=2, time=1.0)
    child = s.begin(
        "QP", SpanCategory.COMPUTE, 7, 2, 1.0, parent=root, detail="d"
    )
    s.end(child, 2.0, cpu_s=1.0)
    s.instant("qp-start", 7, 2, 1.0, parent=root)
    s.end(root, 5.0)
    return s


class TestJsonl:
    def test_round_trip_validates(self, tmp_path):
        s = _sample_stream()
        m = MetricsRegistry()
        m.inc("x")
        m.observe("y", 2.0)
        path = tmp_path / "spans.jsonl"
        with TelemetryWriter(path, header={"n_nodes": 4}) as w:
            w.write_spans(s.spans)
            w.write_metrics(m)
        assert validate_telemetry_file(path) == len(s.spans) + 2
        lines = read_telemetry(path)
        assert lines[0]["record"] == "header"
        assert lines[-1]["record"] == "metrics"
        assert sum(1 for o in lines if o["record"] == "span") == len(s.spans)

    def test_span_to_json_optional_fields(self):
        s = _sample_stream()
        root, child, instant = s.spans
        assert "detail" not in span_to_json(root)
        assert span_to_json(child)["detail"] == "d"
        assert span_to_json(child)["attrs"] == {"cpu_s": 1.0}
        assert span_to_json(instant)["t0"] == span_to_json(instant)["t1"]

    def test_rejects_unknown_record(self):
        with pytest.raises(ValueError):
            validate_telemetry_line({"record": "bogus"})

    def test_rejects_missing_field(self):
        obj = span_to_json(_sample_stream().spans[0])
        del obj["qid"]
        with pytest.raises(ValueError):
            validate_telemetry_line(obj)

    def test_rejects_inverted_interval(self):
        obj = span_to_json(_sample_stream().spans[0])
        obj["t1"] = obj["t0"] - 1.0
        with pytest.raises(ValueError):
            validate_telemetry_line(obj)

    def test_rejects_bad_metric_type(self):
        with pytest.raises(ValueError):
            validate_telemetry_line(
                {"record": "metrics", "metrics": {"m": {"type": "exotic"}}}
            )


class TestChromeTrace:
    def test_structure_and_validation(self):
        trace = chrome_trace(_sample_stream(), label="test")
        n = validate_chrome_trace(trace)
        assert n == len(trace["traceEvents"])
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert phases.count("M") == 1  # one node -> one process_name
        assert phases.count("X") == 2  # root + QP
        assert phases.count("i") == 1

    def test_timestamps_are_microseconds(self):
        trace = chrome_trace(_sample_stream())
        root = next(
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "question"
        )
        assert root["ts"] == pytest.approx(1.0e6)
        assert root["dur"] == pytest.approx(4.0e6)
        assert root["pid"] == 2 and root["tid"] == 7

    def test_parent_linkage_in_args(self):
        trace = chrome_trace(_sample_stream())
        qp = next(
            e for e in trace["traceEvents"] if e.get("name") == "QP"
        )
        assert qp["args"]["parent"] == 0
        assert qp["args"]["cpu_s"] == 1.0

    def test_write_and_reload(self, tmp_path):
        path = write_chrome_trace(_sample_stream(), tmp_path / "t.json")
        assert validate_chrome_trace(json.loads(path.read_text())) > 0

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "pid": 0, "tid": 0, "ts": 0.0,
                     "name": "a", "dur": -1.0},
                ]}
            )

    def test_dropped_spans_surface_in_other_data(self):
        s = SpanStream(max_spans=1)
        s.instant("a", 1, 0, 0.0)
        s.instant("b", 1, 0, 0.0)
        assert chrome_trace(s)["otherData"]["dropped_spans"] == 1
