"""Serving micro-batcher: amortize execution, change no decision.

The batcher sits strictly *after* admission: decisions (and therefore
the decision digest) are made per question against scheduled arrival
times.  Dispatch is work-conserving: an accepted request goes to the
pool at once, alone, whenever a worker is idle; requests are buffered
only while every worker is busy, and the buffer goes out as one
``answer_batch`` unit at ``batch_max``, when its oldest request has
waited ``batch_wait_s``, or the moment a completion frees a worker.
These tests pin the invariants:

* the accept/shed decision digest is byte-identical to unbatched
  serving for a fixed rate + service estimate;
* conservation still balances exactly (nothing is lost in the buffer —
  ``drain`` flushes before the pool drains);
* nothing is ever buffered while a worker is idle, no unit exceeds
  ``batch_max``, requests leave in FIFO order exactly once, and with
  every worker busy the buffer still flushes on size and on age;
* batched completions carry the sharing stats into ``stage:PR-batch``
  spans and the attribution fold still sums to wall.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusConfig
from repro.observability.names import (
    SERVING_BATCH_BUFFER_WAIT_S,
    SERVING_BATCH_SIZE,
    SERVING_TRACES_SAMPLED,
)
from repro.serving import (
    AdmissionConfig,
    LoadgenConfig,
    QAServer,
    ServerConfig,
    run_loadgen,
)
from repro.serving.workers import ExecutionResult, InlineExecutor

CORPUS = CorpusConfig(
    n_collections=3, docs_per_collection=20, vocab_size=500, seed=31
)

#: One real worker process, flooded: the batcher only forms batches
#: while a worker is busy, and the inline executor (one worker, free
#: again at every poll) never is in the loadgen's submit/poll loop.
BASE = LoadgenConfig(
    server=ServerConfig(
        corpus=CORPUS,
        admission=AdmissionConfig(max_queue_depth=3),
        workers=1,
        drain_timeout_s=30.0,
    ),
    n_questions=40,
    n_unique=12,
    workload_seed=1234,
    rate_qps=120.0,
    est_service_s=0.03,
    pace=False,
    record_decisions=True,
)


class FakePool:
    """``workers`` FIFO workers whose units complete only on command.

    Like ``ProcessWorkerPool`` (whose outstanding count drops only when a
    reply is received, i.e. inside ``poll``/``drain``), a completed unit
    keeps its worker busy until ``poll`` hands the results back.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        #: Every dispatched unit, in dispatch order.
        self.units: list[list[tuple]] = []
        self._unfinished: deque[list[tuple]] = deque()
        self._ready: list[ExecutionResult] = []
        #: Units finished but not yet returned by ``poll``.
        self._unpolled_units = 0
        self.attach_report: dict = {}

    def start(self) -> None:
        pass

    @property
    def idle_workers(self) -> int:
        busy = len(self._unfinished) + self._unpolled_units
        return max(0, self.workers - busy)

    def submit(self, unit) -> None:
        self.units.append(list(unit))
        self._unfinished.append(list(unit))

    def complete_one(self) -> None:
        """The oldest unfinished unit finishes (seen at the next poll)."""
        if self._unfinished:
            self._unpolled_units += 1
            self._ready.extend(
                ExecutionResult(
                    seq=item[0], qid=item[1], answers=(("stub", 1.0),),
                    wait_s=0.0, service_s=0.001, worker_pid=1,
                )
                for item in self._unfinished.popleft()
            )

    def poll(self) -> list[ExecutionResult]:
        out, self._ready = self._ready, []
        self._unpolled_units = 0
        return out

    def drain(self, timeout_s: float) -> list[ExecutionResult]:
        while self._unfinished:
            self.complete_one()
        return self.poll()

    def stop(self) -> None:
        pass


def _fake_server(
    workers: int,
    batch_max: int,
    batch_wait_s: float = 1e9,
    admission: AdmissionConfig | None = None,
    metrics_enabled: bool = False,
    trace_sample_rate: float = 0.0,
) -> tuple[QAServer, FakePool]:
    pool = FakePool(workers)
    server = QAServer(
        ServerConfig(
            admission=admission
            or AdmissionConfig(max_concurrent=64, max_queue_depth=64),
            workers=workers,
            batch_max=batch_max,
            batch_wait_s=batch_wait_s,
            metrics_enabled=metrics_enabled,
            spans_enabled=False,
            trace_sample_rate=trace_sample_rate,
        ),
        pool=pool,
    )
    server.start()
    return server, pool


@pytest.fixture(scope="module")
def inline_server_parts(shared_pipeline):
    """Builder for inline micro-batched servers over the shared stack."""

    def build(batch_max: int, batch_wait_s: float = 10.0) -> QAServer:
        return QAServer(
            ServerConfig(
                corpus=CORPUS,
                workers=0,
                batch_max=batch_max,
                batch_wait_s=batch_wait_s,
            ),
            pool=InlineExecutor(shared_pipeline),
        )

    return build


class TestDecisionDigest:
    def test_digest_unchanged_by_batching(self):
        """Batched and unbatched serving shed exactly the same questions."""
        unbatched = run_loadgen(BASE)
        batched = run_loadgen(
            replace(BASE, server=replace(BASE.server, batch_max=4))
        )
        a, b = unbatched["runs"][0], batched["runs"][0]
        assert a["decision_digest"] == b["decision_digest"]
        assert a["decisions"] == b["decisions"]
        assert a["ledger"] == b["ledger"]
        assert b["batch"]["batch_max"] == 4
        assert b["batch"]["n_batched_questions"] > 0
        for run in (a, b):
            assert run["conservation_ok"]


class TestFlushBehavior:
    def test_idle_worker_takes_a_request_at_once(self):
        server, pool = _fake_server(workers=2, batch_max=8)
        for i in range(2):
            server.submit(f"q{i}", qid=i, arrival_s=float(i))
        assert [len(u) for u in pool.units] == [1, 1]
        assert server._batch_buf == []
        server.submit("q2", qid=2, arrival_s=2.0)  # both busy: held
        assert len(server._batch_buf) == 1

    def test_completion_frees_a_worker_and_flushes(self):
        server, pool = _fake_server(workers=1, batch_max=8)
        for i in range(4):
            server.submit(f"q{i}", qid=i, arrival_s=float(i))
        assert len(server._batch_buf) == 3
        server.poll()  # nothing finished: still held
        assert len(server._batch_buf) == 3
        pool.complete_one()
        server.poll()
        assert server._batch_buf == []
        assert [[e[0] for e in u] for u in pool.units] == [[0], [1, 2, 3]]

    def test_full_buffer_flushes_immediately(
        self, inline_server_parts, shared_questions
    ):
        server = inline_server_parts(batch_max=3)
        with server:
            texts = [q.text for q in shared_questions[:4]]
            server.submit(texts[0], qid=0, arrival_s=0.0)  # idle: goes alone
            assert len(server._batch_buf) == 0
            for i in (1, 2):
                server.submit(texts[i], qid=i, arrival_s=float(i))
            assert len(server._batch_buf) == 2  # busy, below batch_max: held
            server.submit(texts[3], qid=3, arrival_s=3.0)
            assert len(server._batch_buf) == 0  # hit batch_max: flushed
            server.poll()
            ledger = server.drain()
        assert ledger.answered == 4 and ledger.balanced
        spans = [
            s for s in server.spans.spans if s.name == "stage:PR-batch"
        ]
        assert len(spans) == 3
        assert all(s.attrs["batch_size"] == 3 for s in spans)

    def test_partial_buffer_flushes_on_age(self):
        """Every worker busy, buffer below batch_max: the age bound flushes."""
        server, pool = _fake_server(workers=1, batch_max=8, batch_wait_s=0.01)
        server.submit("q0", qid=0, arrival_s=0.0)
        server.submit("q1", qid=1, arrival_s=1.0)
        assert len(server._batch_buf) == 1
        server.poll()  # too young: still buffered
        assert len(server._batch_buf) == 1
        time.sleep(0.02)
        server.poll()  # oldest aged out: queued behind the busy worker
        assert server._batch_buf == []
        assert [len(u) for u in pool.units] == [1, 1]
        assert pool.idle_workers == 0

    def test_drain_flushes_leftovers(
        self, inline_server_parts, shared_questions
    ):
        """Buffered-but-unflushed questions must not be lost at shutdown."""
        server = inline_server_parts(batch_max=8, batch_wait_s=60.0)
        with server:
            for i in range(4):
                server.submit(
                    shared_questions[i].text, qid=i, arrival_s=float(i)
                )
            assert len(server._batch_buf) == 3
            ledger = server.drain()
        assert ledger.answered == 4
        assert ledger.drained == 0
        assert ledger.balanced

    def test_batcher_has_its_own_ledger_line(self):
        server, pool = _fake_server(
            workers=1, batch_max=3, metrics_enabled=True
        )
        for i in range(4):  # one alone, then a full unit of three
            server.submit(f"q{i}", qid=i, arrival_s=float(i))
        server.drain()
        metrics = server.metrics.to_dict()
        assert metrics[SERVING_BATCH_SIZE]["count"] == 2
        assert metrics[SERVING_BATCH_SIZE]["sum"] == 4.0
        assert metrics[SERVING_BATCH_BUFFER_WAIT_S]["count"] == 2

    def test_head_sampled_questions_are_counted_with_spans_off(self):
        """``serving.traces_sampled`` counts head-sampled questions, not
        stitched trees: with spans off every accepted question still counts."""
        server, pool = _fake_server(
            workers=1, batch_max=3, metrics_enabled=True, trace_sample_rate=1.0
        )
        for i in range(5):
            server.submit(f"q{i}", qid=i, arrival_s=float(i))
        ledger = server.drain()
        assert ledger.answered == 5
        assert server.metrics.value(SERVING_TRACES_SAMPLED) == 5
        assert all(r.sampled for r in server.responses)

    def test_batched_attribution_still_sums(
        self, inline_server_parts, shared_questions
    ):
        """stage:PR-batch spans keep the categories == wall invariant."""
        from repro.observability.attribution import attribute_question

        server = inline_server_parts(batch_max=2)
        with server:
            for i in range(4):  # alone, a unit of two, one left to drain
                server.submit(
                    shared_questions[i].text, qid=i, arrival_s=float(i)
                )
            server.drain()
        assert any(s.name == "stage:PR-batch" for s in server.spans.spans)
        checked = 0
        for qid in server.spans.question_ids():
            for root in server.spans.roots(qid):
                qa = attribute_question(server.spans, root)
                assert qa.total_attributed_s == pytest.approx(
                    qa.wall_s, abs=1e-9
                )
                checked += 1
        assert checked == 4


def test_batch_mates_do_not_overlap_on_their_worker(
    inline_server_parts, shared_questions
):
    """A unit's members ran one after another: so say their spans."""
    server = inline_server_parts(batch_max=4)
    with server:
        for i in range(5):  # the first goes alone, then a unit of four
            server.submit(shared_questions[i].text, qid=i, arrival_s=float(i))
        server.drain()
    mates = [r for r in server.responses if r.seq >= 1]
    assert [r.seq for r in mates] == [1, 2, 3, 4]
    waits = [r.admission_wait_s for r in mates]
    assert waits == sorted(waits) and waits[0] < waits[-1]
    service = {s.qid: s for s in server.spans.spans if s.name == "service"}
    for a, b in zip(mates, mates[1:]):
        first, second = service[a.qid], service[b.qid]
        assert first.node_id == second.node_id and first.duration > 0
        # Disjoint to within the wall clock's float resolution.
        assert first.t1 <= second.t0 + 1e-6


@st.composite
def interleaving(draw):
    """Pool shape, batcher knobs and a random submit/complete/poll script."""
    workers = draw(st.integers(1, 3))
    batch_max = draw(st.integers(2, 5))
    # 0 ages every buffered request out at once; 1e9 never does.
    batch_wait_s = draw(st.sampled_from([0.0, 1e9]))
    admission = AdmissionConfig(
        max_concurrent=draw(st.integers(1, 4)),
        max_queue_depth=draw(st.integers(0, 6)),
        est_service_s=draw(st.floats(0.01, 0.3)),
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("submit"), st.floats(0.0, 0.5)),
                st.tuples(st.just("complete"), st.just(0.0)),
                st.tuples(st.just("poll"), st.just(0.0)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return workers, batch_max, batch_wait_s, admission, ops


@settings(max_examples=80, deadline=None)
@given(plan=interleaving())
# A shed submit returns before the batcher pumps: if the fake freed the
# completed unit's worker before a poll, one request would sit buffered
# beside an "idle" worker here.
@example(
    plan=(
        1,
        4,
        1e9,
        AdmissionConfig(max_concurrent=1, max_queue_depth=1),
        [("submit", 0.0), ("submit", 0.0), ("complete", 0.0), ("submit", 0.0)],
    )
)
def test_dispatch_is_work_conserving_under_any_interleaving(plan):
    workers, batch_max, batch_wait_s, admission, ops = plan
    server, pool = _fake_server(workers, batch_max, batch_wait_s, admission)
    unbatched, _ = _fake_server(workers, 1, admission=admission)
    accepted: list[int] = []
    now = 0.0
    for i, (op, gap) in enumerate(ops):
        if op == "complete":
            pool.complete_one()
            continue
        if op == "submit":
            now += gap
            if server.submit(f"q{i}", qid=i, arrival_s=now).accepted:
                accepted.append(server._next_seq - 1)
            unbatched.submit(f"q{i}", qid=i, arrival_s=now)
        else:
            server.poll()
        assert not (server._batch_buf and pool.idle_workers), (
            "a request is buffered while a worker is idle"
        )
        assert len(server._batch_buf) < batch_max
    ledger = server.drain()
    dispatched = [entry[0] for unit in pool.units for entry in unit]
    assert dispatched == accepted  # FIFO, every accepted seq exactly once
    assert all(1 <= len(unit) <= batch_max for unit in pool.units)
    assert ledger.balanced and ledger.answered == len(accepted)
    assert server.admission.decision_key() == unbatched.admission.decision_key()
