"""Cross-process telemetry: sampling, the service subtree, telemetry.jsonl."""

import json

import pytest

from repro.observability.attribution import attribute_question
from repro.observability.spans import SpanCategory, SpanStream
from repro.observability.telemetry import (
    HeadSampler,
    TelemetryWriter,
    read_telemetry,
    validate_telemetry_file,
    validate_telemetry_line,
)
from repro.serving.server import _service_subtree


def _sample(**fields):
    """A sample record body: the server's defaults, overridden by ``fields``."""
    return {
        "t": 0.0, "seq": 0, "qid": 0, "outcome": "answered", "latency_s": 0.0,
        "wait_s": 0.0, "service_s": 0.0, "worker": 0, "sampled": False,
        "forced": False, **fields,
    }


class TestHeadSampler:
    def test_rate_extremes(self):
        assert not any(HeadSampler(0.0).sample(i) for i in range(50))
        assert all(HeadSampler(1.0).sample(i) for i in range(50))

    def test_deterministic_per_seed(self):
        a = [HeadSampler(0.5, seed=3).sample(i) for i in range(300)]
        b = [HeadSampler(0.5, seed=3).sample(i) for i in range(300)]
        assert a == b
        c = [HeadSampler(0.5, seed=4).sample(i) for i in range(300)]
        assert a != c

    def test_rate_is_roughly_honoured(self):
        hits = sum(HeadSampler(0.25, seed=1).sample(i) for i in range(2000))
        assert 0.18 < hits / 2000 < 0.32

    def test_trace_ids_are_unique_and_stable(self):
        s = HeadSampler(1.0, seed=9)
        ids = [s.trace_id(i) for i in range(100)]
        assert len(set(ids)) == 100
        assert ids == [HeadSampler(1.0, seed=9).trace_id(i) for i in range(100)]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            HeadSampler(1.5)


class TestWorkerSpanRecords:
    def _fold(self, timings, service_s, batch=None, wait_s=0.2):
        """Build a serve/admission/service tree, write the subtree, fold."""
        stream = SpanStream()
        root = stream.begin("serve", SpanCategory.TASK, 1, -1, 10.0)
        adm = stream.begin(
            "admission", SpanCategory.QUEUE, 1, -1, 10.0, parent=root
        )
        stream.end(adm, 10.0 + wait_s)
        service = stream.begin(
            "service", SpanCategory.COMPUTE, 1, 4, 10.0 + wait_s, parent=root
        )
        _service_subtree(stream, service, timings, service_s, batch, True)
        stream.end(service, 10.0 + wait_s + service_s)
        stream.end(root, 10.0 + wait_s + service_s + 0.05)
        return stream, root, attribute_question(stream, root)

    def test_attribution_sums_exactly_to_wall(self):
        _, root, qa = self._fold((0.1, 0.2, 0.1, 0.05, 0.05), service_s=0.5)
        assert qa.total_attributed_s == pytest.approx(root.duration, abs=1e-12)
        assert qa.categories["queueing"] == pytest.approx(0.2)
        assert qa.categories["compute"] == pytest.approx(0.5)

    def test_module_durations_clip_to_service_time(self):
        # Timings sum to 1.0 but the measured service was only 0.3: the
        # children must clip so the tree (and the fold) stays consistent.
        _, root, qa = self._fold((0.4, 0.3, 0.1, 0.1, 0.1), service_s=0.3)
        assert qa.total_attributed_s == pytest.approx(root.duration, abs=1e-12)
        assert qa.categories["compute"] == pytest.approx(0.3)

    def test_batched_pr_wrapped_in_stage_span(self):
        stream, root, qa = self._fold(
            (0.1, 0.2, 0.1, 0.05, 0.05), service_s=0.5,
            batch=(4, 2),
        )
        names = [s.name for s in stream.spans]
        assert "stage:PR-batch" in names
        stage = stream.spans[names.index("stage:PR-batch")]
        assert stage.attrs["batch_size"] == 4
        assert stage.attrs["sharing_factor"] == 2.0
        assert qa.total_attributed_s == pytest.approx(root.duration, abs=1e-12)

    def test_zero_service_time_is_safe(self):
        stream, _, _ = self._fold((0.0,) * 5, service_s=0.0)
        worker = next(s for s in stream.spans if s.name == "worker")
        assert worker.t0 == worker.t1


class TestTelemetryFile:
    def _write(self, path):
        with TelemetryWriter(path, 0.3, header={"workers": 2}) as w:
            w.write_sample(_sample(
                t=1.0, seq=0, qid=7, outcome="answered", latency_s=0.2,
                wait_s=0.05, service_s=0.15, worker=4242, sampled=True,
            ))
            w.write_sample(_sample(
                t=1.5, seq=1, qid=8, outcome="shed", worker=-1,
                forced=True, reason="shed:queue_full",
            ))
            w.write_slo(
                {
                    "t": 2.0, "state": "warn", "prev_state": "ok",
                    "reasons": ["p99 over target"], "n_answered": 1,
                    "n_shed": 1, "shed_rate": 0.5, "p50_s": 0.2,
                    "p95_s": 0.2, "p99_s": 0.2, "deadline_violations": 0,
                    "utilization": {"4242": 0.4}, "transition": True,
                }
            )
            from repro.observability.metrics import MetricsRegistry

            reg = MetricsRegistry()
            reg.inc("serving.worker_errors")
            reg.histogram("empty.hist")
            w.write_metrics(reg, {"submitted": 2, "balanced": True})
        return path

    def test_file_validates_end_to_end(self, tmp_path):
        path = self._write(tmp_path / "telemetry.jsonl")
        assert validate_telemetry_file(path) == 5  # header + 4 records
        records = read_telemetry(path)
        assert records[0]["schema"] == "telemetry/v3"
        assert records[0]["p99_target_s"] == 0.3
        assert [r["record"] for r in records] == [
            "header", "sample", "sample", "slo", "metrics",
        ]
        assert records[-1]["ledger"] == {"submitted": 2, "balanced": True}

    def test_every_line_is_strict_json(self, tmp_path):
        path = self._write(tmp_path / "t.jsonl")
        for line in path.read_text().splitlines():
            json.loads(line)  # and no Infinity/NaN tokens
            assert "Infinity" not in line and "NaN" not in line

    def test_unsampled_unforced_sample_rejected(self):
        with pytest.raises(ValueError, match="neither sampled nor forced"):
            validate_telemetry_line(
                {
                    "record": "sample", "t": 0.0, "seq": 0, "qid": 0,
                    "outcome": "answered", "latency_s": 0.1, "wait_s": 0.0,
                    "service_s": 0.1, "worker": 1,
                    "sampled": False, "forced": False,
                }
            )

    def test_bad_outcome_and_negative_latency_rejected(self):
        base = {
            "record": "sample", "t": 0.0, "seq": 0, "qid": 0,
            "latency_s": 0.1, "wait_s": 0.0, "service_s": 0.1,
            "worker": 1, "sampled": True, "forced": False,
        }
        with pytest.raises(ValueError, match="unknown outcome"):
            validate_telemetry_line({**base, "outcome": "lost"})
        with pytest.raises(ValueError, match="negative"):
            validate_telemetry_line(
                {**base, "outcome": "answered", "latency_s": -0.1}
            )

    def test_empty_file_and_missing_header_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty telemetry"):
            validate_telemetry_file(empty)
        headless = tmp_path / "headless.jsonl"
        headless.write_text(json.dumps({"record": "metrics", "metrics": {}}) + "\n")
        with pytest.raises(ValueError, match="not a header"):
            validate_telemetry_file(headless)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry schema"):
            validate_telemetry_line({"record": "header", "schema": "v999"})

    def test_header_needs_the_slo_target_and_v1_is_refused(self):
        # The target is checked when present; only ``repro top`` needs it.
        validate_telemetry_line({"record": "header", "schema": "telemetry/v3"})
        with pytest.raises(ValueError, match="p99_target_s"):
            validate_telemetry_line(
                {"record": "header", "schema": "telemetry/v3", "p99_target_s": 0}
            )
        for old in ("telemetry/v1", "telemetry/v2"):
            with pytest.raises(ValueError, match="unknown telemetry schema"):
                validate_telemetry_line(
                    {"record": "header", "schema": old, "p99_target_s": 1.0}
                )

    def test_closed_writer_refuses_writes(self, tmp_path):
        w = TelemetryWriter(tmp_path / "x.jsonl", 0.3)
        w.close()
        with pytest.raises(RuntimeError):
            w.write_sample(_sample(outcome="shed", forced=True))
