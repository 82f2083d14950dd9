"""Stitched cross-process traces: the PR's acceptance criteria, inline.

A sampled question served through the QAServer must yield ONE span tree
crossing the server/worker boundary whose attribution buckets sum
exactly to its end-to-end wall latency; enabling sampling must not
perturb the admission decision digest.
"""

import hashlib
import json

import pytest

from repro.nlp import EntityRecognizer
from repro.observability.attribution import attribute_question
from repro.observability.names import SERVING_TRACES_SAMPLED
from repro.observability.telemetry import validate_telemetry_file
from repro.qa import QAPipeline
from repro.serving import AdmissionConfig, QAServer, ServerConfig
from repro.serving.protocol import Outcome
from repro.serving.workers import ExecutionResult, InlineExecutor

from ..conftest import SHARED_CORPUS_CONFIG


@pytest.fixture()
def fresh_pipeline(shared_corpus, shared_indexed_corpus):
    """A pipeline of its own over the shared index."""
    recognizer = EntityRecognizer(
        shared_corpus.knowledge.gazetteer(),
        extra_nationalities=shared_corpus.knowledge.nationalities,
    )
    return QAPipeline(shared_indexed_corpus, recognizer)


def _config(**kw):
    kw.setdefault("corpus", SHARED_CORPUS_CONFIG)
    kw.setdefault("workers", 0)
    kw.setdefault(
        "admission",
        AdmissionConfig(
            max_concurrent=8, max_queue_depth=8, est_service_s=0.05
        ),
    )
    kw.setdefault("trace_sample_rate", 1.0)
    return ServerConfig(**kw)


def _serve(server, questions, n=4):
    with server:
        for i, q in enumerate(questions[:n]):
            server.submit(q.text, qid=q.qid, arrival_s=0.02 * i)
            server.poll()
    return server


class TestStitchedTree:
    def test_sampled_question_yields_one_boundary_crossing_tree(
        self, fresh_pipeline, shared_questions
    ):
        server = _serve(
            QAServer(_config(), pool=InlineExecutor(fresh_pipeline)),
            shared_questions,
        )
        answered = [
            r for r in server.responses if r.outcome is Outcome.ANSWERED
        ]
        assert answered and all(r.sampled for r in answered)
        for r in answered:
            roots = server.spans.roots(r.qid)
            assert len(roots) == 1
            names = [s.name for s in server.spans.subtree(roots[0])]
            # Server-side skeleton plus the worker's module subtree:
            # this single tree crosses the process boundary.
            for required in ("serve", "admission", "service", "worker", "pr"):
                assert required in names, (r.qid, names)
        assert server.metrics.value(SERVING_TRACES_SAMPLED) == len(answered)

    def test_attribution_fold_sums_exactly_to_wall(
        self, fresh_pipeline, shared_questions
    ):
        server = _serve(
            QAServer(_config(), pool=InlineExecutor(fresh_pipeline)),
            shared_questions,
        )
        folded = 0
        for qid in server.spans.question_ids():
            for root in server.spans.roots(qid):
                qa = attribute_question(server.spans, root)
                assert qa.total_attributed_s == pytest.approx(
                    root.duration, abs=1e-9
                )
                assert qa.categories["compute"] > 0.0
                folded += 1
        assert folded >= 4

    def test_batched_tree_has_exactly_one_stage_span(
        self, fresh_pipeline, shared_questions
    ):
        server = QAServer(
            _config(batch_max=3, batch_wait_s=10.0),
            pool=InlineExecutor(fresh_pipeline),
        )
        with server:
            # No poll in between: the inline worker stays busy after the
            # first question, so the next three leave as one unit.
            for i, q in enumerate(shared_questions[:6]):
                server.submit(q.text, qid=q.qid, arrival_s=0.02 * i)
        answered = [
            r for r in server.responses if r.outcome is Outcome.ANSWERED
        ]
        assert answered
        saw_batched = 0
        for r in answered:
            root = server.spans.roots(r.qid)[0]
            names = [s.name for s in server.spans.subtree(root)]
            # A sampled batch member's stage:PR-batch span sits inside its
            # worker subtree; there must not be a second one beside it.
            assert names.count("stage:PR-batch") <= 1, names
            saw_batched += names.count("stage:PR-batch")
            qa = attribute_question(server.spans, root)
            assert qa.total_attributed_s == pytest.approx(
                root.duration, abs=1e-9
            )
        assert saw_batched > 0


class TestForcedTelemetry:
    def test_sheds_are_forced_into_telemetry(
        self, fresh_pipeline, shared_questions, tmp_path
    ):
        path = tmp_path / "telemetry.jsonl"
        config = _config(
            admission=AdmissionConfig(
                max_concurrent=1, max_queue_depth=0, est_service_s=10.0
            ),
            telemetry_path=str(path),
        )
        server = QAServer(config, pool=InlineExecutor(fresh_pipeline))
        with server:
            for i, q in enumerate(shared_questions[:3]):
                server.submit(q.text, qid=q.qid, arrival_s=0.0)
        assert server.ledger.shed == 2
        assert validate_telemetry_file(path) >= 1
        records = [json.loads(line) for line in path.read_text().splitlines()]
        sheds = [r for r in records if r.get("outcome") == "shed"]
        assert len(sheds) == 2
        assert all(s["forced"] for s in sheds)
        assert all(s["reason"].startswith("shed:") for s in sheds)
        # The stream always ends with the final SLO judgement and the
        # server's metrics record.
        assert [r["record"] for r in records[-2:]] == ["slo", "metrics"]

    def test_drained_questions_fold_to_pure_queueing(self, tmp_path):
        class NeverPool:
            """Accepts everything, completes nothing."""

            workers = 1
            attach_report = {}

            def start(self):
                pass

            def submit(self, unit):
                pass

            def poll(self):
                return []

            def drain(self, timeout_s):
                return []

            def stop(self):
                pass

        path = tmp_path / "telemetry.jsonl"
        server = QAServer(
            _config(telemetry_path=str(path)), pool=NeverPool()
        )
        with server:
            server.submit("q0", qid=0, arrival_s=0.0)
            server.submit("q1", qid=1, arrival_s=0.1)
        assert server.ledger.drained == 2
        for qid in (0, 1):
            root = server.spans.roots(qid)[0]
            assert root.attrs["outcome"] == "drained"
            qa = attribute_question(server.spans, root)
            assert qa.total_attributed_s == pytest.approx(
                root.duration, abs=1e-9
            )
            # The whole sojourn was admission queueing.
            assert qa.categories["queueing"] == pytest.approx(
                root.duration, abs=1e-9
            )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        drained = [r for r in records if r.get("outcome") == "drained"]
        assert len(drained) == 2 and all(r["forced"] for r in drained)
        validate_telemetry_file(path)


class TestDigestUnchanged:
    def _decisions(self, rate):
        class CompleteAllPool:
            workers = 1
            attach_report = {}

            def __init__(self):
                self._ready = []

            def start(self):
                pass

            def submit(self, unit):
                self._ready.extend(
                    ExecutionResult(
                        seq=seq, qid=qid, answers=(("stub", 1.0),),
                        wait_s=0.0, service_s=0.001, worker_pid=1,
                    )
                    for seq, qid, _text, _submit_wall in unit
                )

            def poll(self):
                out, self._ready = self._ready, []
                return out

            def drain(self, timeout_s):
                return self.poll()

            def stop(self):
                pass

        config = _config(
            admission=AdmissionConfig(
                max_concurrent=2, max_queue_depth=1, est_service_s=0.5
            ),
            trace_sample_rate=rate,
        )
        server = QAServer(config, pool=CompleteAllPool())
        with server:
            for i in range(12):
                server.submit(f"q{i}", qid=i, arrival_s=0.05 * i)
        return server.admission.decision_key()

    def test_sampling_does_not_perturb_admission_digest(self):
        key_off = self._decisions(0.0)
        key_on = self._decisions(1.0)
        assert key_on == key_off
        def digest(key):
            return hashlib.sha256(repr(key).encode()).hexdigest()

        assert digest(key_on) == digest(key_off)
        assert key_on  # non-empty decision sequence


@pytest.mark.slow
class TestLoadgenTelemetry:
    """End-to-end: real workers, sampling on, telemetry + trace on disk."""

    def test_sampled_sweep_emits_stitched_artifacts(self, tmp_path):
        from repro.observability.exporters import validate_chrome_trace
        from repro.serving import LoadgenConfig, run_loadgen

        telemetry_out = tmp_path / "telemetry.jsonl"
        trace_out = tmp_path / "trace.json"
        summary = run_loadgen(
            LoadgenConfig(
                server=ServerConfig(
                    corpus=SHARED_CORPUS_CONFIG,
                    workers=2,
                    drain_timeout_s=30.0,
                    trace_sample_rate=0.5,
                    trace_seed=3,
                    telemetry_path=str(telemetry_out),
                ),
                n_questions=40,
                n_unique=15,
                rate_qps=20.0,
                est_service_s=0.05,
                trace_out=str(trace_out),
            )
        )
        assert summary["schema"] == "loadgen/v1"
        tel = summary["telemetry"]
        assert tel["trace_sample_rate"] == 0.5
        assert tel["sampled_answered"] > 0
        # The acceptance criterion: stitched trees actually crossed the
        # process boundary (worker-measured subtrees were written).
        assert tel["stitched_trees"] > 0
        assert "observability_overhead" not in summary
        run = summary["runs"][0]
        assert run["sampling"]["stitched_trees"] > 0
        # Per-run telemetry file exists and validates end to end.
        assert validate_telemetry_file(run["telemetry"]["path"]) >= 3
        # The stitched Chrome trace validates and has stable lanes.
        trace = json.loads(trace_out.read_text())
        validate_chrome_trace(trace)
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert "server" in names
        assert any(n.startswith("worker-") for n in names)

