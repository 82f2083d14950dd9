"""The long-lived Q/A server: admission control in front of real workers.

:class:`QAServer` is the serving counterpart of the simulated cluster's
front end: questions enter through a bounded FIFO admission queue (the
simulator's FIFO-of-3 node discipline, made load-shedding), accepted
questions are executed by worker processes attached to the shared
packed-index artifact, and everything that happens is recorded three
ways at once:

* a :class:`~repro.serving.protocol.ConservationLedger` proving
  ``answered + shed + drained == submitted`` exactly;
* the shared :class:`~repro.observability.metrics.MetricsRegistry`
  under the canonical ``serving.*`` names — plus, at drain, an
  **aggregated** registry merging each worker's piggybacked snapshot
  (counters sum across processes, gauges stay labeled per worker);
* a :class:`~repro.observability.spans.SpanStream` span tree per
  answered question (``serve`` root, ``admission`` queue child,
  ``service`` compute child) plus an instant event per shed, so the
  existing attribution pass can fold admission wait into its
  ``queueing`` bucket with no serving-specific code.

The span story crosses the process boundary without the wire knowing:
every reply carries the worker's five measured module timings, and the
server alone builds the question's tree (:func:`_service_subtree`).
When a question is **head-sampled** (a deterministic function of
``trace_seed`` and the submission sequence number, decided *after*
admission so the accept/shed digest is unchanged, and remembered in
``_Pending`` — the worker never hears of it), its ``service`` span gets
a ``worker`` subtree of module spans — one stitched tree per question
whose attribution fold still sums exactly to the end-to-end wall
latency.  A rolling-window
:class:`~repro.serving.slo.SLOMonitor` watches completions, and an
optional :class:`~repro.observability.telemetry.TelemetryWriter`
streams sampled/forced per-question records plus SLO transitions to a
``telemetry.jsonl`` file.

Dispatch is **work-conserving**: an accepted request joins one buffer,
which goes to the pool as one unit at once whenever a worker is idle
(the pool counts dispatched-and-unfinished units).  Requests stay
buffered only while every worker is busy, and the buffer is flushed
when it reaches ``batch_max`` (at ``batch_max == 1``: always), when its
oldest request has waited ``batch_wait_s``, or the moment a completion
frees a worker — so unit size follows load (≈1 when idle,
``batch_max`` at saturation) instead of a timer.

Lifecycle: ``start() -> submit()* / poll()* -> drain() -> stop()``.
``drain`` is graceful: admission flips to shedding ``DRAINING``,
in-flight questions get ``drain_timeout_s`` to finish, and whatever is
still unfinished is accounted ``DRAINED`` — never silently dropped.
"""

from __future__ import annotations

import time
import typing as t
from dataclasses import dataclass, field

from ..corpus import CorpusConfig
from ..observability.attribution import attribute_question
from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    SERVING_ADMISSION_WAIT_S,
    SERVING_ANSWERED,
    SERVING_BATCH_BUFFER_WAIT_S,
    SERVING_BATCH_SIZE,
    SERVING_DEADLINE_VIOLATIONS,
    SERVING_DRAINED,
    SERVING_LATENCY_S,
    SERVING_QUEUE_DEPTH,
    SERVING_SERVICE_S,
    SERVING_SHED,
    SERVING_SHED_PREFIX,
    SERVING_SLO_STATE,
    SERVING_SLO_TRANSITIONS,
    SERVING_SUBMITTED,
    SERVING_TRACES_SAMPLED,
    SERVING_TRACE_SPANS,
    SERVING_WORKER_ERRORS,
)
from ..observability.spans import Span, SpanCategory, SpanStream
from ..observability.telemetry import HeadSampler, TelemetryWriter
from .admission import AdmissionConfig, AdmissionController, AdmissionDecision
from .protocol import (
    ConservationLedger,
    Outcome,
    OverloadError,
    ServeResponse,
    ShedReason,
)
from .slo import SLOConfig, SLOMonitor
from .workers import ExecutionResult, InlineExecutor, ProcessWorkerPool

__all__ = ["QAServer", "ServerConfig"]

#: SLO states as gauge values (see ``SERVING_SLO_STATE``).
_SLO_STATE_VALUE = {"ok": 0.0, "warn": 1.0, "breach": 2.0}


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Everything a serving run needs besides the workload itself."""

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Worker processes; 0 = inline synchronous execution (tests/debug).
    workers: int = 3
    #: Seconds in-flight questions get to finish at shutdown.
    drain_timeout_s: float = 60.0
    #: Admission-side micro-batcher: the most accepted questions handed
    #: to one worker as a single unit.  A question is buffered only
    #: while every worker is busy; while one is idle it is dispatched at
    #: once, alone.  At ``1`` every unit is one question.  Admission
    #: decisions are made *before* buffering, so the accept/shed decision
    #: sequence (and the loadgen's decision digest) is byte-identical to
    #: unbatched serving by construction.
    batch_max: int = 1
    #: Age bound of the buffer: with every worker busy and fewer than
    #: ``batch_max`` buffered, the unit is queued behind the busy workers
    #: once its oldest request has waited this long.
    batch_wait_s: float = 0.005
    #: Observability switches (spans cost memory on long runs).
    metrics_enabled: bool = True
    spans_enabled: bool = True
    #: Head-sampling rate for worker-side detail traces in [0, 1].
    #: Sampling is a pure function of ``(trace_seed, seq)`` evaluated
    #: *after* the admission decision, so enabling it cannot perturb
    #: the accept/shed sequence or its digest.  0 disables stitching.
    trace_sample_rate: float = 0.0
    trace_seed: int = 0
    #: Rolling-window SLO thresholds; ``None`` uses :class:`SLOConfig`
    #: defaults when a monitor is needed (telemetry enabled) and skips
    #: the monitor entirely otherwise.
    slo: SLOConfig | None = None
    #: When set, stream ``telemetry/v1`` JSONL records here.
    telemetry_path: str | None = None


@dataclass(slots=True)
class _Pending:
    """Book-keeping for an accepted, not-yet-completed question."""

    qid: int
    submit_wall: float
    #: Logical arrival timestamp (drives the SLO monitor's clock).
    arrival_s: float = 0.0
    #: Sojourn budget the admission deadline implies, judged
    #: retrospectively at completion.
    deadline_budget_s: float = 0.0
    #: Whether this question was head-sampled; ``trace_id`` is set when
    #: it also gets the stitched ``worker`` subtree (spans enabled).
    sampled: bool = False
    trace_id: str = ""
    #: Pre-opened spans, ended at completion (or at drain).
    root: Span | None = None
    admission_span: Span | None = None


def _service_subtree(
    spans: SpanStream,
    service: Span | None,
    timings: tuple[float, float, float, float, float],
    service_s: float,
    batch: tuple[int, int, float, float] | None,
    sampled: bool,
) -> int:
    """Write ``service``'s children from a reply's measured module timings.

    Sampled: a ``worker`` compute root spanning the whole service time
    with the pipeline modules as sequential children, each clipped so it
    nests inside the root — the attribution fold's sum-to-wall invariant
    holds for any timings.  Batched: the PR phase sits in a
    ``stage:PR-batch`` partition span carrying the unit's sharing stats;
    an unsampled batch member gets that pair alone (critical-path compute
    == pr, so the categories still sum exactly).  Returns the number of
    spans written.
    """
    if service is None or (batch is None and not sampled):
        return 0
    before = len(spans)
    qid, pid, t0 = service.qid, service.node_id, service.t0
    service_s = max(0.0, service_s)
    parent: Span | None = service
    modules: t.Iterable[tuple[str, float]] = (("pr", timings[1]),)
    if sampled:
        parent = spans.begin(
            "worker", SpanCategory.COMPUTE, qid, pid, t0, parent=service
        )
        modules = zip(("qp", "pr", "ps", "po", "ap"), timings)
    cursor = 0.0
    for name, dur in modules:
        dur = min(max(0.0, dur), service_s - cursor)
        stage = None
        if name == "pr" and batch is not None:
            stage = spans.begin(
                "stage:PR-batch", SpanCategory.PARTITION, qid, pid,
                t0 + cursor, parent=parent,
            )
        span = spans.begin(
            name, SpanCategory.COMPUTE, qid, pid, t0 + cursor,
            parent=stage or parent,
        )
        spans.end(span, t0 + (cursor + dur))
        if stage is not None:
            batch_size, n_distinct, sharing, amortized = batch
            spans.end(
                stage,
                t0 + (cursor + dur),
                batch_size=batch_size,
                n_distinct=n_distinct,
                sharing_factor=sharing,
                amortized_postings_scanned=amortized,
            )
        cursor += dur
    if sampled:
        spans.end(parent, t0 + service_s)
    return len(spans) - before


class QAServer:
    """Admission-controlled multi-worker serving of the real pipeline."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        pool: t.Any | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.admission = AdmissionController(self.config.admission)
        self.ledger = ConservationLedger()
        self.metrics = MetricsRegistry(enabled=self.config.metrics_enabled)
        self.spans = SpanStream(enabled=self.config.spans_enabled)
        self.sampler = HeadSampler(
            self.config.trace_sample_rate, seed=self.config.trace_seed
        )
        #: Created when SLO thresholds or a telemetry sink are configured.
        self.slo: SLOMonitor | None = None
        if self.config.slo is not None or self.config.telemetry_path:
            self.slo = SLOMonitor(self.config.slo or SLOConfig())
        self.telemetry: TelemetryWriter | None = None
        if self.config.telemetry_path:
            self.telemetry = TelemetryWriter(
                self.config.telemetry_path,
                header={
                    "workers": self.config.workers,
                    "trace_sample_rate": self.config.trace_sample_rate,
                    "trace_seed": self.config.trace_seed,
                },
            )
        self.responses: list[ServeResponse] = []
        #: Latest logical timestamp fed to the SLO monitor (drain reuses it).
        self._slo_last_t = 0.0
        self._pending: dict[int, _Pending] = {}
        #: Accepted-but-unsent requests ``(seq, qid, text, submit_wall)``:
        #: the next unit.
        self._batch_buf: list[tuple[int, int, str, float]] = []
        self._next_seq = 0
        self._started = False
        self._drained = False
        if pool is not None:
            self.pool = pool
        elif self.config.workers >= 1:
            self.pool = ProcessWorkerPool(
                self.config.corpus, self.config.workers
            )
        else:
            self.pool = None  # built lazily in start() (needs a pipeline)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Spawn (or build) the execution backend."""
        if self._started:
            return
        if self.pool is None:
            from ..experiments.context import build_serving_context

            ctx = build_serving_context(self.config.corpus)
            self.pool = InlineExecutor(ctx.pipeline)
        self.pool.start()
        self._started = True

    def __enter__(self) -> "QAServer":
        self.start()
        return self

    def __exit__(self, *exc: t.Any) -> None:
        if not self._drained:
            self.drain()
        self.stop()

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        text: str,
        qid: int = 0,
        client: str = "default",
        arrival_s: float | None = None,
        deadline_s: float | None = None,
        raise_on_shed: bool = False,
    ) -> AdmissionDecision:
        """Offer one question to admission control.

        ``arrival_s`` is the logical timestamp decisions are made
        against; ``None`` uses the real clock (interactive serving).
        The loadgen passes its *scheduled* arrival times, which is what
        makes the decision sequence deterministic across worker counts.
        """
        if not self._started:
            raise RuntimeError("QAServer.submit before start()")
        submit_wall = time.time()
        if arrival_s is None:
            arrival_s = submit_wall
        seq = self._next_seq
        self._next_seq += 1
        self.ledger.submitted += 1
        self.metrics.inc(SERVING_SUBMITTED)
        decision = self.admission.submit(
            seq, qid, arrival_s, client=client, deadline_s=deadline_s
        )
        if decision.accepted:
            # Head-sampling is decided only now, from (seed, seq) — the
            # admission decision above is already sealed, so the digest
            # is byte-identical with sampling on or off.
            sampled = self.sampler.sample(seq)
            budget = (
                deadline_s - arrival_s
                if deadline_s is not None
                else self.config.admission.effective_deadline_s
            )
            pending = _Pending(
                qid=qid,
                submit_wall=submit_wall,
                arrival_s=arrival_s,
                deadline_budget_s=max(0.0, budget),
                sampled=sampled,
            )
            if self.spans.enabled:
                # Pre-open the stitched tree's server-side spans; the
                # completion (or drain) path ends them, so even drained
                # questions leave a root whose fold sums to their wall.
                pending.root = self.spans.begin(
                    "serve", SpanCategory.TASK, qid, node_id=-1, time=submit_wall
                )
                pending.admission_span = self.spans.begin(
                    "admission", SpanCategory.QUEUE, qid, node_id=-1,
                    time=submit_wall, parent=pending.root,
                )
                if sampled and pending.root is not None:
                    pending.trace_id = self.sampler.trace_id(seq)
                    self.metrics.inc(SERVING_TRACES_SAMPLED)
            self._pending[seq] = pending
            if self.metrics.enabled:
                self.metrics.gauge(SERVING_QUEUE_DEPTH).set(
                    float(len(self._pending))
                )
            self._batch_buf.append((seq, qid, text, submit_wall))
            self._pump_batch()
        else:
            reason = decision.shed_reason or ShedReason.QUEUE_FULL
            self.ledger.record(Outcome.SHED, reason)
            self.metrics.inc(SERVING_SHED)
            self.metrics.inc(SERVING_SHED_PREFIX + reason.value)
            self.spans.instant(
                f"shed:{reason.value}", qid, node_id=-1, time=submit_wall
            )
            self.responses.append(
                ServeResponse(
                    seq=seq,
                    qid=qid,
                    outcome=Outcome.SHED,
                    shed_reason=reason,
                )
            )
            if self.slo is not None:
                self.slo.record_shed(arrival_s, reason=reason.value)
                self._emit_slo(arrival_s)
            if self.telemetry is not None:
                # Sheds are always forced into the telemetry stream —
                # they are exactly the events an operator pages on.
                self.telemetry.write_sample(
                    t_s=arrival_s, seq=seq, qid=qid, outcome="shed",
                    worker=-1, forced=True, reason=f"shed:{reason.value}",
                )
            if raise_on_shed:
                raise OverloadError(
                    reason,
                    qid,
                    queue_depth=decision.queue_depth,
                    predicted_wait_s=decision.predicted_wait_s,
                )
        return decision

    # -- micro-batching ----------------------------------------------------------
    def _flush_batch(self) -> None:
        """Hand the buffered accepted requests to one worker as one unit."""
        buf = self._batch_buf
        if not buf:
            return
        self._batch_buf = []
        if self.metrics.enabled:
            self.metrics.observe(SERVING_BATCH_SIZE, float(len(buf)))
            self.metrics.observe(
                SERVING_BATCH_BUFFER_WAIT_S, max(0.0, time.time() - buf[0][3])
            )
        self.pool.submit(buf)

    def _pump_batch(self) -> None:
        """The flush rule: never hold a request while a worker is idle.

        With every worker busy the buffer fills, and still goes out on
        size or on the age of its oldest request.
        """
        buf = self._batch_buf
        if buf and (
            len(buf) >= self.config.batch_max
            or self.pool.idle_workers > 0
            or time.time() - buf[0][3] >= self.config.batch_wait_s
        ):
            self._flush_batch()

    # -- completion --------------------------------------------------------------
    def _complete(self, res: ExecutionResult) -> None:
        pending = self._pending.pop(res.seq, None)
        if pending is None:  # late duplicate; ignore rather than double-count
            return
        end_wall = time.time()
        latency = max(0.0, end_wall - pending.submit_wall)
        violated = (
            pending.deadline_budget_s > 0
            and latency > pending.deadline_budget_s
        )
        stitched = bool(pending.trace_id)
        response = ServeResponse(
            seq=res.seq,
            qid=res.qid,
            outcome=Outcome.ANSWERED,
            answers=res.answers,
            latency_s=latency,
            admission_wait_s=res.wait_s,
            service_s=res.service_s,
            worker_pid=res.worker_pid,
            sampled=stitched,
            deadline_violated=violated,
            error=res.error,
        )
        self.responses.append(response)
        self.ledger.record(Outcome.ANSWERED)
        self.metrics.inc(SERVING_ANSWERED)
        if res.error:
            self.metrics.inc(SERVING_WORKER_ERRORS)
        self.metrics.observe(SERVING_LATENCY_S, latency)
        self.metrics.observe(SERVING_ADMISSION_WAIT_S, res.wait_s)
        self.metrics.observe(SERVING_SERVICE_S, res.service_s)
        if violated:
            self.metrics.inc(SERVING_DEADLINE_VIOLATIONS)
        if self.metrics.enabled:
            self.metrics.gauge(SERVING_QUEUE_DEPTH).set(
                float(len(self._pending))
            )
        if self.spans.enabled and pending.root is not None:
            root = pending.root
            root.node_id = res.worker_pid
            t0 = pending.submit_wall
            wait_end = t0 + res.wait_s
            if pending.admission_span is not None:
                self.spans.end(pending.admission_span, wait_end)
            service = self.spans.begin(
                "service", SpanCategory.COMPUTE, res.qid,
                node_id=res.worker_pid, time=wait_end, parent=root,
            )
            written = _service_subtree(
                self.spans, service, res.timings, res.service_s, res.batch,
                stitched,
            )
            if stitched:
                self.metrics.inc(SERVING_TRACE_SPANS, written)
            self.spans.end(service, wait_end + res.service_s)
            attrs: dict[str, t.Any] = {"outcome": "answered"}
            if pending.trace_id:
                attrs["trace_id"] = pending.trace_id
            self.spans.end(
                root, max(end_wall, wait_end + res.service_s), **attrs
            )
        t_logical = pending.arrival_s + latency
        if self.slo is not None:
            self.slo.record_answered(
                t_logical, latency, service_s=res.service_s,
                worker_pid=res.worker_pid, deadline_violated=violated,
            )
            self._emit_slo(t_logical)
        if self.telemetry is not None:
            slow = (
                self.slo is not None
                and latency > self.slo.config.p99_target_s
            )
            forced = violated or slow
            if pending.sampled or forced:
                reason = None
                if violated:
                    reason = "deadline_violated"
                elif slow:
                    reason = "slow_outlier"
                self.telemetry.write_sample(
                    t_s=t_logical, seq=res.seq, qid=res.qid,
                    outcome="answered", latency_s=latency,
                    wait_s=res.wait_s, service_s=res.service_s,
                    worker=res.worker_pid,
                    sampled=pending.sampled, forced=forced, reason=reason,
                )

    def _emit_slo(self, t_s: float) -> None:
        """Evaluate the SLO monitor and export any state transition."""
        if self.slo is None:
            return
        self._slo_last_t = max(self._slo_last_t, t_s)
        report = self.slo.evaluate(t_s)
        if self.metrics.enabled:
            self.metrics.gauge(SERVING_SLO_STATE).set(
                _SLO_STATE_VALUE[report.state.value]
            )
        if report.transition:
            self.metrics.inc(SERVING_SLO_TRANSITIONS)
            if self.telemetry is not None:
                self.telemetry.write_slo(report.to_dict())

    def poll(self) -> int:
        """Fold any finished questions into the ledger; returns the count."""
        results = self.pool.poll()
        # A completion may have freed a worker, and the buffer ages.
        self._pump_batch()
        for res in results:
            self._complete(res)
        return len(results)

    @property
    def in_flight(self) -> int:
        """Accepted questions not yet completed."""
        return len(self._pending)

    # -- shutdown ----------------------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> ConservationLedger:
        """Graceful shutdown: stop admitting, finish in-flight, account rest."""
        if self._drained:
            return self.ledger
        self.admission.start_draining()
        self._flush_batch()  # nothing accepted may sit in the buffer
        timeout = self.config.drain_timeout_s if timeout_s is None else timeout_s
        if self._started:
            for res in self.pool.drain(timeout):
                self._complete(res)
        drain_wall = time.time()
        for seq in sorted(self._pending):
            pending = self._pending.pop(seq)
            self.ledger.record(Outcome.DRAINED)
            self.metrics.inc(SERVING_DRAINED)
            if pending.root is not None:
                # End the pre-opened tree at the drain instant: the
                # whole sojourn was queueing, and the fold still sums
                # exactly to the question's wall.
                if pending.admission_span is not None:
                    self.spans.end(pending.admission_span, drain_wall)
                self.spans.end(pending.root, drain_wall, outcome="drained")
            self.responses.append(
                ServeResponse(
                    seq=seq, qid=pending.qid, outcome=Outcome.DRAINED
                )
            )
            if self.telemetry is not None:
                self.telemetry.write_sample(
                    t_s=pending.arrival_s,
                    seq=seq,
                    qid=pending.qid,
                    outcome="drained",
                    latency_s=max(0.0, drain_wall - pending.submit_wall),
                    worker=-1,
                    sampled=pending.sampled,
                    forced=True,
                    reason="drained",
                )
        if self.metrics.enabled:
            self.metrics.gauge(SERVING_QUEUE_DEPTH).set(0.0)
        if self.telemetry is not None:
            if self.slo is not None:
                self.telemetry.write_slo(
                    self.slo.evaluate(self._slo_last_t).to_dict()
                )
            self.telemetry.write_metrics(self.aggregated_metrics())
            self.telemetry.close()
        self._drained = True
        return self.ledger

    def stop(self) -> None:
        """Tear the execution backend down (terminates stragglers)."""
        if self._started and self.pool is not None:
            self.pool.stop()
        self._started = False

    # -- reporting ---------------------------------------------------------------
    def aggregated_metrics(self) -> MetricsRegistry:
        """Server registry merged with every worker's latest snapshot.

        Counters sum across processes; gauges keep one labeled value
        per worker (``name{worker=<pid>}``); histograms merge with
        deterministic decimation.  Worker snapshots arrive piggybacked
        on the reply pipes, newest-wins per pid (they're cumulative).
        """
        agg = MetricsRegistry()
        if self.metrics.enabled and len(self.metrics):
            agg.merge_snapshot(self.metrics.snapshot())
        snaps = self.pool.worker_snapshots
        for pid in sorted(snaps):
            agg.merge_snapshot(snaps[pid], label=f"worker={pid}")
        return agg

    def export_trace(self, path: str) -> None:
        """Write the stitched span stream as a Chrome ``trace_event`` file.

        Uses stable pid lanes: the server's ``node_id=-1`` becomes pid 0
        ("server") and each worker OS pid gets its own contiguous lane.
        """
        from ..observability.exporters import write_chrome_trace

        write_chrome_trace(
            self.spans, path, label="repro serve", stable_pids=True
        )

    def attribution_summary(self) -> dict[str, float]:
        """Mean per-question attribution over the answered span trees.

        Runs the existing observability fold
        (:func:`~repro.observability.attribution.attribute_question`)
        over every ``serve`` root: admission wait lands in the
        ``queueing`` bucket, worker execution in ``compute``, IPC and
        collection slack in ``other``.
        """
        totals: dict[str, float] = {}
        n = 0
        for qid in self.spans.question_ids():
            for root in self.spans.roots(qid):
                qa = attribute_question(self.spans, root)
                n += 1
                for cat, sec in qa.categories.items():
                    totals[cat] = totals.get(cat, 0.0) + sec
        if n == 0:
            return {}
        return {f"{cat}_mean_s": sec / n for cat, sec in sorted(totals.items())}
