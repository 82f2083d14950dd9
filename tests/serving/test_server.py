"""End-to-end serving tests: real workers, real overload, real drain.

These pin the PR's acceptance criteria directly: at an offered load of
2x measured saturation the server sheds (instead of queueing without
bound), accepted-question p99 stays within 3x of the at-saturation p99,
question conservation is exact, and the drain is clean.
"""

import os
import signal
import time

import pytest

from repro.corpus import CorpusConfig
from repro.serving import (
    LoadgenConfig,
    OverloadError,
    QAServer,
    ServerConfig,
    AdmissionConfig,
    format_serving,
    run_loadgen,
)

CORPUS = CorpusConfig(
    n_collections=3, docs_per_collection=20, vocab_size=500, seed=31
)


@pytest.fixture(scope="module")
def overload_summary():
    """One below/at/above-saturation sweep shared by the assertions."""
    return run_loadgen(
        LoadgenConfig(
            server=ServerConfig(corpus=CORPUS, workers=2, drain_timeout_s=30.0),
            n_questions=80,
            n_unique=25,
            load_factors=(0.5, 1.0, 2.0),
            calibration_questions=24,
        )
    )


@pytest.mark.slow
class TestOverloadProtocol:
    def test_conservation_exact_in_every_run(self, overload_summary):
        for run in overload_summary["runs"]:
            led = run["ledger"]
            assert led["balanced"], run["label"]
            assert (
                led["answered"] + led["shed"] + led["drained"]
                == led["submitted"]
                == 80
            )

    def test_overload_sheds_instead_of_queueing(self, overload_summary):
        over = overload_summary["overload"]
        assert over["shed_nonzero_at_overload"], over
        # Shedding is the bounded-queue kind, not a drain artifact.
        run_2x = next(
            r for r in overload_summary["runs"] if r["load_factor"] == 2.0
        )
        assert run_2x["ledger"]["shed"] > 0
        assert set(run_2x["ledger"]["shed_by_reason"]) <= {
            "queue_full", "deadline",
        }

    def test_accepted_p99_stays_bounded_under_overload(self, overload_summary):
        over = overload_summary["overload"]
        assert over["p99_within_limit"], over
        assert over["p99_ratio"] <= over["ratio_limit"] == 3.0

    def test_drain_is_clean(self, overload_summary):
        assert overload_summary["overload"]["clean_drain"]
        for run in overload_summary["runs"]:
            assert run["ledger"]["drained"] == 0, run["label"]

    def test_overall_verdict_and_schema(self, overload_summary):
        assert overload_summary["ok"] is True
        assert overload_summary["schema"] == "bench_serving/v3"
        assert overload_summary["saturation_qps"] > 0

    def test_workers_attach_to_shared_artifact(self, overload_summary):
        """The tentpole's zero-rebuild claim: workers attach, not build."""
        for run in overload_summary["runs"]:
            w = run["workers"]
            assert w["n"] == 2
            # The parent warms the artifact before spawning, so every
            # worker should attach from cache.
            assert w["attached_from_cache"] == 2, w
            assert w["built"] == 0

    def test_attribution_covers_admission_wait(self, overload_summary):
        """Serving spans feed the existing attribution fold."""
        run_2x = next(
            r for r in overload_summary["runs"] if r["load_factor"] == 2.0
        )
        attribution = run_2x["attribution"]
        assert "queueing_mean_s" in attribution
        assert "compute_mean_s" in attribution
        assert attribution["compute_mean_s"] > 0

    def test_report_renders(self, overload_summary):
        text = format_serving(overload_summary)
        assert "Serving" in text and "conservation: balanced" in text


class TestServerSurface:
    """Cheap (inline-executor) behaviours of the QAServer itself."""

    def _server(self, **admission_kw):
        return QAServer(
            ServerConfig(
                corpus=CORPUS,
                admission=AdmissionConfig(**admission_kw),
                workers=0,
            )
        )

    def test_submit_before_start_raises(self):
        server = self._server()
        with pytest.raises(RuntimeError):
            server.submit("who?", qid=0)

    def test_raise_on_shed_raises_typed_overload(self):
        server = self._server(
            max_concurrent=1, max_queue_depth=0, est_service_s=10.0
        )
        with server:
            assert server.submit("q0", qid=0, arrival_s=0.0).accepted
            with pytest.raises(OverloadError) as exc:
                server.submit(
                    "q1", qid=1, arrival_s=0.0, raise_on_shed=True
                )
            assert exc.value.qid == 1
            # The shed question is still accounted for.
            assert server.ledger.shed == 1
        assert server.ledger.balanced

    def test_metrics_registry_sees_serving_names(self):
        from repro.observability.names import (
            SERVING_ANSWERED,
            SERVING_SHED,
            SERVING_SUBMITTED,
        )

        server = self._server(
            max_concurrent=1, max_queue_depth=0, est_service_s=10.0
        )
        with server:
            server.submit("q0", qid=0, arrival_s=0.0)
            server.submit("q1", qid=1, arrival_s=0.0)  # shed
            server.poll()
        snapshot = server.metrics.to_dict()
        assert snapshot[SERVING_SUBMITTED]["value"] == 2
        assert snapshot[SERVING_ANSWERED]["value"] == 1
        assert snapshot[SERVING_SHED]["value"] == 1

    def test_context_manager_drains_on_exit(self):
        server = self._server()
        with server:
            server.submit("anything", qid=0, arrival_s=0.0)
        assert server.ledger.balanced
        assert server.ledger.submitted == 1

    def test_worker_exception_reaches_the_response(self):
        """A pipeline exception is an answered question that says so."""
        from repro.observability.names import SERVING_WORKER_ERRORS
        from repro.serving.workers import InlineExecutor

        class Broken:
            metrics = None

            def answer(self, text, qid=0):
                raise ValueError("poisoned question")

        server = QAServer(
            ServerConfig(corpus=CORPUS, workers=0),
            pool=InlineExecutor(Broken()),
        )
        with server:
            server.submit("q0", qid=0, arrival_s=0.0)
        (response,) = server.responses
        assert response.answered and response.answers == ()
        assert response.error == "ValueError: poisoned question"
        assert server.metrics.value(SERVING_WORKER_ERRORS) == 1
        assert server.ledger.balanced and server.ledger.answered == 1


    def test_reply_carries_the_measured_module_timings(
        self, shared_pipeline, shared_questions
    ):
        """``timings`` is the pipeline's own measurement, or zeros on error."""
        from repro.serving.workers import InlineExecutor

        class Recording:
            metrics = None

            def __init__(self):
                self.results = []

            def answer(self, text, qid=0):
                if not text:
                    raise ValueError("empty question")
                self.results.append(shared_pipeline.answer(text, qid=qid))
                return self.results[-1]

        pipeline = Recording()
        pool = InlineExecutor(pipeline)
        pool.submit([(0, 7, shared_questions[0].text, time.time())])
        pool.submit([(1, 8, "", time.time())])
        served, failed = pool.poll()
        tm = pipeline.results[0].timings
        assert served.timings == (tm.qp, tm.pr, tm.ps, tm.po, tm.ap)
        assert not served.error and sum(served.timings) > 0
        assert failed.error == "ValueError: empty question"
        assert failed.timings == (0.0,) * 5 and failed.answers == ()


class TestLostWorker:
    def test_killed_worker_is_detected_and_not_waited_for(self, shared_questions):
        """SIGKILL one of two workers mid-run: detection, no hang, balance."""
        server = QAServer(
            ServerConfig(
                corpus=CORPUS,
                admission=AdmissionConfig(
                    max_concurrent=64, max_queue_depth=4096, est_service_s=1e-4
                ),
                workers=2,
                batch_max=64,
                drain_timeout_s=30.0,
                spans_enabled=False,
            )
        )
        n = 600
        with server:
            pids = list(server.pool.attach_report)
            for i in range(n):
                q = shared_questions[i % len(shared_questions)]
                server.submit(q.text, qid=q.qid, arrival_s=1e-3 * i)
            # Both workers are deep in a long unit now (neither is inside
            # the request queue's read lock): kill one of them.
            time.sleep(0.02)
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while not server.pool.lost_workers and time.monotonic() < deadline:
                server.poll()  # keeps returning; EOF is not a busy loop
                time.sleep(0.001)
            assert server.pool.lost_workers == [pids[0]]
            server.poll()
            t0 = time.monotonic()
            ledger = server.drain()
            drain_s = time.monotonic() - t0
        assert drain_s < 15.0  # the survivor's work, not drain_timeout_s
        assert ledger.submitted == n and ledger.shed == 0
        assert ledger.balanced
        assert ledger.drained >= 1  # the killed worker's unit
        assert ledger.answered + ledger.drained == n
