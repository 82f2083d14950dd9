"""The two served workloads: ``serve_closed_uniq`` and ``serve_open_zipf``.

One single-threaded load generator drives a real ``QAServer`` (worker
processes attached to the packed-index artifact) through ``submit`` and
``poll`` only, checks every served answer against an in-process
``QAPipeline.answer`` reference, and reads CPU and memory of the driver
and the workers from ``/proc``.  The measured phase replays the same
stream K times on one server lifetime, so segments differ only by host
noise.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import statistics
import time
import typing as t
from dataclasses import dataclass, field

import numpy as np

from repro.corpus import CorpusConfig
from repro.experiments.context import build_context, build_serving_context
from repro.nlp.stemming import SHARED_STEM_CACHE
from repro.qa.question import Question
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    QAServer,
    ServerConfig,
    zipf_workload,
)
from repro.workload import poisson_arrivals
from repro.workload.metrics import percentile

import harness

#: Sleep between empty polls: the driver must not spin a core the
#: worker needs, and 0.5 ms is small beside a ~6 ms question.
POLL_SLEEP_S = 0.0005

#: Answers compared per question (the serving layer forwards three).
TOP_ANSWERS = 3

#: Cold set-ups per run, and the seconds one takes here.  The run has
#: 24 s for set-ups and segments together: a third set-up would cost the
#: segments a repetition, and the best-of-K estimator needs K more than
#: the set-up median needs a third sample.
COLD_SETUPS = 2
SETUP_NOMINAL_S = 4.0


@dataclass(frozen=True)
class ServeSpec:
    corpus: CorpusConfig
    workers: int
    batch_max: int
    #: Slices a segment is cut into; the host factor is sampled between them.
    slices: int
    #: Questions in one segment.
    n_questions: int
    #: Seconds one segment takes here at the host's usual speed,
    #: calibration included; with ``--seconds`` it fixes K.
    segment_s: float
    #: Closed loop: concurrent clients.
    clients: int = 0
    #: Open loop: fixed offered rate and number of distinct questions.
    rate_qps: float = 0.0
    n_unique: int = 0

    @property
    def open_loop(self) -> bool:
        return self.rate_qps > 0


#: 4.2 MB corpus, ~6 ms/question: seconds-long segments on this host.
_TIER = CorpusConfig(docs_per_collection=240)
_SMOKE_TIER = CorpusConfig(
    n_collections=2, docs_per_collection=30, vocab_size=800, seed=17
)

SPECS = {
    # Distinct questions overflow the 256-entry conjunction LRUs, so the
    # caches thrash and QP->PR->PS->PO->AP do nearly all the work.
    # The corpus generates 447 questions: a segment asks each of them once.
    "serve_closed_uniq": ServeSpec(
        _TIER, workers=1, batch_max=1, slices=6, n_questions=447, segment_s=4.0,
        clients=2,
    ),
    # Same pipeline used differently: answer_batch with duplicate replay
    # and shared postings, admission, micro-batcher, two-worker hand-off.
    "serve_open_zipf": ServeSpec(
        _TIER, workers=2, batch_max=8, slices=4, n_questions=400, segment_s=4.0,
        rate_qps=100.0, n_unique=60,
    ),
}
SMOKE_SPECS = {
    "serve_closed_uniq": ServeSpec(
        _SMOKE_TIER, workers=1, batch_max=1, slices=2, n_questions=60, segment_s=0.5,
        clients=2,
    ),
    "serve_open_zipf": ServeSpec(
        _SMOKE_TIER, workers=2, batch_max=8, slices=2, n_questions=90, segment_s=0.7,
        rate_qps=150.0, n_unique=20,
    ),
}

Stream = list[tuple[int, str]]
#: One slice: its questions and, on the open loop, their due offsets.
Slice = tuple[Stream, list[float]]


def spec_for(workload: str, smoke: bool) -> ServeSpec:
    return (SMOKE_SPECS if smoke else SPECS)[workload]


def server_config(spec: ServeSpec, observability: bool) -> ServerConfig:
    """The served configuration; admission is sized never to shed.

    Admission is a logical-time G/G/c model, not completion-driven: the
    closed loop gets a service estimate far below its inter-arrival gap,
    the open loop a fixed one (modelled capacity 500 q/s at 100 offered)
    with a deep queue and a long deadline.
    """
    if spec.open_loop:
        admission = AdmissionConfig(
            max_concurrent=3, max_queue_depth=64, est_service_s=0.006, deadline_s=1.0
        )
    else:
        admission = AdmissionConfig(
            max_concurrent=spec.clients, max_queue_depth=4, est_service_s=1e-4
        )
    return ServerConfig(
        corpus=spec.corpus,
        admission=admission,
        workers=spec.workers,
        batch_max=spec.batch_max,
        batch_wait_s=0.005,
        metrics_enabled=observability,
        spans_enabled=observability,
        trace_sample_rate=1.0 if observability else 0.0,
    )


# -- inputs ------------------------------------------------------------------------
def make_slices(spec: ServeSpec, questions: t.Sequence, seed: int) -> list[Slice]:
    """The segment's question stream, cut into slices.

    Closed loop: a seeded shuffle of the first ``n_questions`` generated
    questions, each asked once.  Open
    loop: Zipf picks over a fixed popular set, each slice on its own
    Poisson schedule scaled so the last arrival falls at exactly
    ``n / rate``: the offered rate is then the same for every seed, and
    ``qps`` does not inherit the schedule's length.
    """
    if spec.open_loop:
        stream = zipf_workload(
            questions, spec.n_questions, spec.n_unique, 1.1, seed
        )
    else:
        if len(questions) < spec.n_questions:
            raise ValueError(
                f"corpus generated {len(questions)} questions, "
                f"the workload needs {spec.n_questions}"
            )
        order = np.random.default_rng(seed).permutation(spec.n_questions)
        stream = [(questions[i].qid, questions[i].text) for i in order]
    bounds = np.linspace(0, len(stream), spec.slices + 1).astype(int)
    slices: list[Slice] = []
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        schedule: list[float] = []
        if spec.open_loop:
            raw = poisson_arrivals(hi - lo, spec.rate_qps, seed=seed * 1000 + j)
            scale = ((hi - lo) / spec.rate_qps) / raw[-1]
            schedule = [x * scale for x in raw]
        slices.append((stream[lo:hi], schedule))
    return slices


def reference_answers(pipeline, slices: t.Sequence[Slice]) -> dict:
    """Top answers per distinct question from the in-process pipeline."""
    ref: dict[int, tuple[tuple[str, float], ...]] = {}
    for stream, _ in slices:
        for qid, text in stream:
            if qid not in ref:
                ref[qid] = answer_digest(pipeline.answer(text, qid=qid).answers)
    return ref


def answer_digest(answers: t.Sequence) -> tuple[tuple[str, float], ...]:
    return tuple((a.text, float(a.score)) for a in answers[:TOP_ANSWERS])


# -- the load generator ----------------------------------------------------------------
@dataclass
class SliceLog:
    """What the client saw of one slice."""

    n: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    driver_cpu_s: float = 0.0
    ok: int = 0
    failed: int = 0
    shed: int = 0
    #: Latency per question in stream order (``nan`` until it completes).
    latencies_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    responses: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    submit_s: float = 0.0
    poll_busy_s: float = 0.0
    poll_completions: int = 0


class LoadGenerator:
    """Single-threaded client of one ``QAServer`` lifetime."""

    def __init__(
        self,
        spec: ServeSpec,
        server: QAServer,
        reference: dict,
        recorder: harness.SpanRecorder | None = None,
    ) -> None:
        self.spec = spec
        self.server = server
        self.reference = reference
        self.rec = recorder
        self.pids = [os.getpid(), *server.pool.attach_report]
        self._seen = 0
        self._origin = time.perf_counter()
        self._slices_run = 0
        #: Logical gap between slices: a power of two above the schedule
        #: span, so the admission model is idle at each slice start and
        #: adding the offset perturbs arrival times by rounding only.
        span = (
            spec.n_questions / spec.slices / spec.rate_qps if spec.open_loop else 0.0
        )
        self._logical_gap = 2.0 ** math.ceil(math.log2(span + 2.0))

    def _cpu(self) -> tuple[float, float]:
        per_pid = [harness.proc_cpu_s(pid) for pid in self.pids]
        return sum(per_pid), per_pid[0]

    def _submit(self, log: SliceLog, text: str, qid: int, arrival_s: float) -> int:
        t0 = time.perf_counter()
        decision = self.server.submit(text, qid=qid, arrival_s=arrival_s)
        t1 = time.perf_counter()
        log.submit_s += t1 - t0
        log.decisions.append(decision)
        if self.rec is not None:
            self.rec.add("server.submit", t0, t1, qid)
        return decision.seq

    def _poll(self, log: SliceLog, sent: dict[int, tuple[int, float]]) -> int:
        """Poll once and fold whatever finished into the slice log.

        ``sent`` maps a submission's sequence number to its position in
        the slice and the instant its latency runs from.
        """
        t0 = time.perf_counter()
        n = self.server.poll()
        now = time.perf_counter()
        if n:
            log.poll_busy_s += now - t0
            log.poll_completions += n
            if self.rec is not None:
                self.rec.add("server.poll", t0, now)
        responses = self.server.responses
        for r in responses[self._seen :]:
            log.responses.append(r)
            if not r.answered:
                log.failed += 1
                log.shed += 1
                continue
            position, since = sent[r.seq]
            log.latencies_s[position] = now - since
            if self.rec is not None:  # worker-side spans from the reply's fields
                picked = now - r.latency_s + r.admission_wait_s
                self.rec.add("workers.queue_wait", now - r.latency_s, picked, r.qid)
                self.rec.add("workers.service", picked, picked + r.service_s, r.qid)
            if r.answers == self.reference[r.qid]:
                log.ok += 1
            else:
                log.failed += 1
        self._seen = len(responses)
        return n

    def run_slice(self, stream: Stream, schedule: t.Sequence[float]) -> SliceLog:
        """Offer one slice and wait until every question of it completed."""
        log = SliceLog(n=len(stream), latencies_s=[math.nan] * len(stream))
        sent: dict[int, tuple[int, float]] = {}
        server = self.server
        cpu0, driver0 = self._cpu()
        t0 = time.perf_counter()
        if self.spec.open_loop:
            logical0 = self._slices_run * self._logical_gap
            for position, ((qid, text), offset) in enumerate(zip(stream, schedule)):
                due = t0 + offset
                while True:
                    now = time.perf_counter()
                    if now >= due:
                        break
                    self._poll(log, sent)
                    remaining = due - time.perf_counter()
                    if remaining > 0:
                        time.sleep(min(remaining, POLL_SLEEP_S))
                log.late_s.append(now - due)
                # Latency runs from the due instant, so a stalled
                # generator charges its lateness to the question.
                seq = self._submit(log, text, qid, logical0 + offset)
                sent[seq] = (position, due)
                self._poll(log, sent)
            while server.in_flight:
                if not self._poll(log, sent):
                    time.sleep(POLL_SLEEP_S)
        else:
            n_sent = 0
            while log.ok + log.failed < len(stream):
                while (
                    n_sent - (log.ok + log.failed) < self.spec.clients
                    and n_sent < len(stream)
                ):
                    qid, text = stream[n_sent]
                    now = time.perf_counter()
                    seq = self._submit(log, text, qid, now - self._origin)
                    sent[seq] = (n_sent, now)
                    n_sent += 1
                if not self._poll(log, sent):
                    time.sleep(POLL_SLEEP_S)
        self._poll(log, sent)  # sheds recorded by the last submit
        log.wall_s = time.perf_counter() - t0
        cpu1, driver1 = self._cpu()
        log.cpu_s, log.driver_cpu_s = cpu1 - cpu0, driver1 - driver0
        self._slices_run += 1
        return log

    def run_segment(
        self, slices: t.Sequence[Slice]
    ) -> tuple[list[SliceLog], list[harness.Piece]]:
        """Every slice in order, the host factor sampled between them.

        The workers are idle while the calibration runs in this process.
        """
        logs, pieces = [], []
        factor = harness.host_factor()
        for stream, schedule in slices:
            log = self.run_slice(stream, schedule)
            before, factor = factor, harness.host_factor()
            logs.append(log)
            pieces.append(
                harness.Piece(
                    log.wall_s, log.cpu_s, (before + factor) / 2, log.latencies_s
                )
            )
        return logs, pieces

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over driver and workers; read before the drain."""
        return sum(harness.proc_peak_rss_mb(pid) for pid in self.pids)


def decision_digest(decisions: t.Sequence) -> str:
    """Admission decisions of one segment, position-relative.

    The server numbers submissions over its lifetime, so the digest keys
    on the position inside the segment; predicted waits are rounded to a
    microsecond because slices sit at different logical offsets.
    """
    key = [
        (
            i,
            d.qid,
            d.accepted,
            None if d.shed_reason is None else d.shed_reason.value,
            round(d.predicted_wait_s, 6),
            d.queue_depth,
        )
        for i, d in enumerate(decisions)
    ]
    return hashlib.sha256(repr(key).encode()).hexdigest()


def segment_digest(logs: t.Sequence[SliceLog]) -> str:
    return decision_digest([d for log in logs for d in log.decisions])


def segment_metrics(
    wall_s: float, cpu_s: float, latencies_s: t.Sequence[float]
) -> dict[str, float]:
    """One segment's end-to-end values from its totals and latencies."""
    n = len(latencies_s)
    return {
        "qps": n / wall_s,
        "cpu_ms_per_q": 1e3 * cpu_s / n,
        "lat_p50_ms": 1e3 * percentile(latencies_s, 0.50),
        "lat_p95_ms": 1e3 * percentile(latencies_s, 0.95),
    }


def run(workload: str, seed: int, seconds: float, smoke: bool) -> dict[str, t.Any]:
    """The untraced run: cold set-ups, warm-up, identical segments."""
    spec = spec_for(workload, smoke)
    setup_samples, setup_raw, cache = harness.cold_setups(
        ["serve", workload, str(int(smoke))],
        1 if smoke else COLD_SETUPS,
        workload,
    )
    os.environ["REPRO_CACHE_DIR"] = str(cache)  # the last one, now warm

    ctx = build_context(spec.corpus)
    slices = make_slices(spec, ctx.questions, seed)
    reference = reference_answers(ctx.pipeline, slices)
    n_q = sum(len(stream) for stream, _ in slices)

    server = QAServer(server_config(spec, observability=False))
    server.start()
    try:
        gen = LoadGenerator(spec, server, reference)
        gen.run_slice(*slices[0])  # warm-up: lazy set-up in the workers
        segments: list[tuple[list[SliceLog], list[harness.Piece]]] = []
        k = harness.planned_segments(
            seconds, COLD_SETUPS * SETUP_NOMINAL_S, spec.segment_s
        )
        for _ in range(k):
            segments.append(gen.run_segment(slices))
        rss_mb = gen.peak_rss_mb()
        ledger = server.drain()
    finally:
        server.stop()

    all_logs = [log for logs, _ in segments for log in logs]
    pieces = [p for _, p in segments]
    failed = sum(log.failed for log in all_logs)
    digests = [segment_digest(logs) for logs, _ in segments]
    gates = {
        "conservation ledger balanced": ledger.balanced,
        "nothing shed or drained": ledger.shed == 0 and ledger.drained == 0,
        "every measured question accounted": all(
            log.ok + log.failed == log.n for log in all_logs
        ),
    }
    notes = [
        f"K={len(segments)} segments of {n_q} questions in {spec.slices} slices, "
        f"{spec.workers} worker(s), batch_max={spec.batch_max}",
        f"lat_p50_ms/lat_p95_ms over {n_q} samples per segment "
        f"({n_q - int(0.95 * n_q)} beyond p95)",
        harness.setup_note(setup_samples, setup_raw),
    ]
    if spec.open_loop:
        gates["decision digest identical across segments"] = len(set(digests)) == 1
        late = [x for log in all_logs for x in log.late_s]
        notes.append(
            f"open loop {spec.rate_qps:g} q/s, latency from the due instant; "
            f"generator lateness p99 {1e3 * percentile(late, 0.99):.3f} ms "
            f"over {len(late)} sends; decision digest {digests[0][:16]}"
        )
    else:
        notes.append(f"closed loop, {spec.clients} clients, latency from the send instant")
    return {
        "segments": [
            segment_metrics(
                # The open loop's qps is pinned to the offered rate, not to
                # host speed.
                sum(p.wall_s for p in seg)
                if spec.open_loop
                else harness.at_reference(seg, "wall_s"),
                harness.at_reference(seg, "cpu_s"),
                harness.latencies_at_reference(seg),
            )
            for seg in pieces
        ],
        "raw_segments": [
            segment_metrics(
                sum(p.wall_s for p in seg),
                sum(p.cpu_s for p in seg),
                [x for p in seg for x in p.lat_s],
            )
            for seg in pieces
        ],
        "run_level": {"setup_s": statistics.median(setup_samples), "rss_mb": rss_mb},
        "attempted": n_q * len(segments),
        "failed": failed,
        "gates": gates,
        "notes": notes,
        "info": {
            "k": len(segments),
            "segment_questions": n_q,
            "decision_digest": digests[0],
            "slices": [[p.as_measured() for p in seg] for seg in pieces],
            "setup_raw_s": setup_raw,
        },
    }


# -- traced run: the serving stack's per-layer ledger -----------------------------------
def _cache_counters(pipeline) -> tuple[int, int, int, int]:
    hits = misses = 0
    for retriever in pipeline.indexed.retrievers:
        stats = retriever.cache_stats
        hits += stats["hits"]
        misses += stats["misses"]
    return hits, misses, SHARED_STEM_CACHE.hits, SHARED_STEM_CACHE.misses


def replay_stages(
    pipeline, stream, reference, rec: harness.SpanRecorder
) -> tuple[dict[str, float], bool]:
    """The workload's exact stream through the five stage objects in order.

    ``rec`` must be empty: the stage self times are read from all of it.
    """
    n = len(stream)
    counts = dict.fromkeys(
        ("postings", "rounds", "doc_bytes", "paragraphs", "accepted"), 0.0
    )
    same = True
    c0 = _cache_counters(pipeline)
    for qid, text in stream:
        with rec.span("qa.answer", qid):
            with rec.span("qa.qp", qid):
                processed = pipeline.qp.process(Question(qid=qid, text=text))
            with rec.span("qa.pr", qid):
                pr = pipeline.pr.retrieve(processed)
            with rec.span("qa.ps", qid):
                scored = pipeline.ps.score(processed, pr.paragraphs)
            with rec.span("qa.po", qid):
                accepted = pipeline.po.order(scored)
            with rec.span("qa.ap", qid):
                answers = pipeline.ap.extract(processed, accepted)
        same = same and answer_digest(answers) == reference[qid]
        counts["postings"] += pr.postings_scanned
        counts["rounds"] += sum(w.relaxation_rounds for w in pr.per_collection)
        counts["doc_bytes"] += pr.doc_bytes_read
        counts["paragraphs"] += len(pr.paragraphs)
        counts["accepted"] += len(accepted)
    c1 = _cache_counters(pipeline)
    self_s = rec.self_times()
    conj = (c1[0] - c0[0]) + (c1[1] - c0[1])
    stem = (c1[2] - c0[2]) + (c1[3] - c0[3])
    layers = {
        "qa.answer_us": 1e6 * sum(rec.durations("qa.answer")) / n,
        "retrieval.postings_scanned_per_q": counts["postings"] / n,
        "retrieval.relaxation_rounds_per_q": counts["rounds"] / n,
        "retrieval.doc_bytes_per_q": counts["doc_bytes"] / n,
        "retrieval.paragraphs_per_q": counts["paragraphs"] / n,
        "qa.accepted_per_q": counts["accepted"] / n,
        "retrieval.conj_cache_hit_ratio": (c1[0] - c0[0]) / conj if conj else 0.0,
        "nlp.stem_cache_hit_ratio": (c1[2] - c0[2]) / stem if stem else 0.0,
    }
    for stage in ("qp", "pr", "ps", "po", "ap"):
        layers[f"qa.{stage}_us"] = 1e6 * self_s[f"qa.{stage}"] / n
    return layers, same


def timed_answers(pipeline, stream: Stream) -> list[float]:
    out = []
    for qid, text in stream:
        t0 = time.perf_counter()
        pipeline.answer(text, qid=qid)
        out.append(time.perf_counter() - t0)
    return out


def replay_batches(pipeline, stream: Stream, chunk: int) -> dict[str, float]:
    """The stream through ``answer_batch`` in micro-batcher-sized chunks."""
    n_distinct = 0
    sharing = []
    t0 = time.perf_counter()
    for i in range(0, len(stream), chunk):
        part = stream[i : i + chunk]
        pipeline.answer_batch([text for _, text in part], [qid for qid, _ in part])
        stats = pipeline.last_batch_stats
        n_distinct += stats.n_distinct
        sharing.append(stats.sharing_factor)
    elapsed = time.perf_counter() - t0
    return {
        "qa.batch_us_per_q": 1e6 * elapsed / len(stream),
        "qa.batch_sharing_factor": sum(sharing) / len(sharing),
        "qa.batch_distinct_ratio": n_distinct / len(stream),
    }


def _served_segment(
    spec: ServeSpec,
    slices: t.Sequence[Slice],
    reference: dict,
    observability: bool,
    rec: harness.SpanRecorder | None,
) -> tuple[list[SliceLog], float, QAServer, bool]:
    """Warm-up plus one segment on a fresh server; returns it drained.

    The second item is the segment's CPU per answered question at the
    reference host speed.
    """
    server = QAServer(server_config(spec, observability))
    server.start()
    try:
        gen = LoadGenerator(spec, server, reference)
        gen.run_slice(*slices[0])
        gen.rec = rec
        logs, pieces = gen.run_segment(slices)
        ledger = server.drain()
    finally:
        server.stop()
    cpu_per_q = harness.at_reference(pieces, "cpu_s") / max(1, sum(log.ok for log in logs))
    clean = ledger.balanced and ledger.shed == 0 and ledger.drained == 0
    return logs, cpu_per_q, server, clean


def trace(workload: str, seed: int, smoke: bool) -> dict[str, t.Any]:
    """Layer metrics of one workload, recorded from outside the program.

    Layer timings are host time as measured: read them as shares of a
    run, beside its host factor.  Only the observability overhead, which
    compares segments run at different moments, is taken at the reference
    host speed.
    """
    spec = spec_for(workload, smoke)
    rec = harness.SpanRecorder()
    layers: dict[str, float] = {}
    factors = [harness.host_factor()]

    cache = harness.scratch_dir(workload)
    _, setup_layers = harness.cold_setup(
        ["serve", workload, str(int(smoke)), "--layers"], cache
    )
    layers.update(setup_layers)
    os.environ["REPRO_CACHE_DIR"] = str(cache)

    ctx = build_context(spec.corpus)
    slices = make_slices(spec, ctx.questions, seed)
    stream = [item for part, _ in slices for item in part]
    reference = reference_answers(ctx.pipeline, slices)
    factors.append(harness.host_factor())

    # qa / retrieval / nlp: in-process replay on an attached pipeline.  The
    # staged pass doubles as the warm-up of the timed `answer` pass.
    attached_ctx = build_serving_context(spec.corpus)
    attached = attached_ctx.pipeline
    stage_layers, stages_same = replay_stages(attached, stream, reference, rec)
    layers.update(stage_layers)
    per_answer = timed_answers(attached, stream)
    layers["qa.answer_us_p50"] = 1e6 * percentile(per_answer, 0.50)
    layers["qa.answer_us_p95"] = 1e6 * percentile(per_answer, 0.95)
    layers["qa.answer_us_attached"] = 1e6 * sum(per_answer) / len(per_answer)
    layers.update(replay_batches(attached, stream, chunk=8))
    factors.append(harness.host_factor())
    del attached
    os.environ["REPRO_CACHE_DIR"] = ""  # no artifact: tokenize, stem, intern
    try:
        built_ctx = build_serving_context(spec.corpus)
    finally:
        os.environ["REPRO_CACHE_DIR"] = str(cache)
    timed_answers(built_ctx.pipeline, stream[:50])
    per_answer_built = timed_answers(built_ctx.pipeline, stream)
    layers["qa.answer_us_built"] = 1e6 * sum(per_answer_built) / len(per_answer_built)
    sources = (attached_ctx.index_source, built_ctx.index_source)
    del built_ctx
    factors.append(harness.host_factor())

    # serving: one segment with the program's observability off, harness
    # spans on; then the same segment with spans + 100 % sampling on.
    logs, cpu_off, server, clean_off = _served_segment(
        spec, slices, reference, False, rec
    )
    factors.append(harness.host_factor())
    responses = [r for log in logs for r in log.responses]
    answered = [r for r in responses if r.answered]
    latencies = [x for log in logs for x in log.latencies_s]
    late = [x for log in logs for x in log.late_s]
    wall_s = sum(log.wall_s for log in logs)
    n = max(1, len(answered))
    controller = AdmissionController(server.config.admission)
    offsets = [x for _, schedule in slices for x in schedule] or [
        i * 0.01 for i in range(len(stream))
    ]
    t0 = time.perf_counter()
    for i, ((qid, _), arrival) in enumerate(zip(stream, offsets)):
        controller.submit(i, qid, arrival)
    layers["admission.submit_us"] = 1e6 * (time.perf_counter() - t0) / len(stream)
    layers["admission.shed_ratio"] = sum(log.shed for log in logs) / len(stream)
    layers["server.submit_us"] = 1e6 * sum(log.submit_s for log in logs) / len(stream)
    layers["server.poll_us_per_completion"] = (
        1e6
        * sum(log.poll_busy_s for log in logs)
        / max(1, sum(log.poll_completions for log in logs))
    )
    layers["workers.queue_wait_us"] = 1e6 * sum(r.admission_wait_s for r in answered) / n
    layers["workers.service_us"] = 1e6 * sum(r.service_s for r in answered) / n
    layers["workers.reply_us"] = (
        1e6
        * sum(r.latency_s - r.admission_wait_s - r.service_s for r in answered)
        / n
    )
    layers["workers.busy_frac"] = sum(r.service_s for r in answered) / (
        spec.workers * wall_s
    )
    # Computed, not measured: pickle.dumps of same-shape tuples.
    requests = [
        (i, qid, text, time.time(), None)
        for i, (qid, text) in enumerate(stream[: spec.batch_max])
    ]
    wire = ("batch", requests) if spec.batch_max > 1 else requests[0]
    layers["workers.ipc_request_bytes"] = len(pickle.dumps(wire)) / len(requests)
    r0 = answered[0]
    batch_info = (spec.batch_max, spec.batch_max, 1.0, 0.0) if spec.batch_max > 1 else None
    layers["workers.ipc_reply_bytes"] = float(
        len(
            pickle.dumps(
                ("done", r0.seq, r0.qid, r0.answers, r0.admission_wait_s,
                 r0.service_s, r0.worker_pid, "", 0.0, batch_info, None)
            )
        )
    )
    layers["serving.lat_p99_ms"] = 1e3 * percentile(latencies, 0.99)
    layers["serving.lat_max_ms"] = 1e3 * max(latencies)
    layers["loadgen.late_p99_ms"] = 1e3 * percentile(late, 0.99) if late else 0.0
    layers["loadgen.cpu_frac"] = sum(log.driver_cpu_s for log in logs) / wall_s

    logs_on, cpu_on, server_on, clean_on = _served_segment(
        spec, slices, reference, True, None
    )
    factors.append(harness.host_factor())
    layers["observability.overhead_frac"] = (cpu_on - cpu_off) / cpu_off
    layers["observability.spans_per_q"] = len(server_on.spans.spans) / max(
        1, server_on.ledger.answered
    )
    batches = [
        s.attrs["batch_size"]
        for s in server_on.spans.spans
        if s.name == "stage:PR-batch" and "batch_size" in s.attrs
    ]
    layers["server.batch_size_mean"] = (
        sum(batches) / len(batches) if batches else 1.0
    )

    stage_sum = sum(layers[f"qa.{s}_us"] for s in ("qp", "pr", "ps", "po", "ap"))
    gates = {
        "stage replay answers match the reference": stages_same,
        "qa stages sum to qa.answer_us within 5 %": abs(
            stage_sum - layers["qa.answer_us"]
        )
        <= 0.05 * layers["qa.answer_us"],
        "replays ran on an attached and on a built index": sources
        == ("cache", "built"),
        "served segments clean (observability off, on)": clean_off and clean_on,
        "observability leaves the decision digest unchanged": segment_digest(logs)
        == segment_digest(logs_on)
        or not spec.open_loop,
    }
    rec.write(harness.OUT_DIR / f"trace_{workload}.json")
    return {
        "layers": layers,
        "attempted": 2 * len(stream),
        "failed": sum(log.failed for log in logs + logs_on),
        "gates": gates,
        "notes": [
            f"{len(rec.spans)} harness spans written to bench/out/trace_{workload}.json",
            "timings are host time as measured; host factor during the run "
            + " ".join(f"{f:.2f}" for f in factors),
            f"percentiles over {len(per_answer)} answers and {len(latencies)} served questions",
            "workers.ipc_*_bytes are computed with pickle.dumps on same-shape tuples",
            "observability.overhead_frac is CPU per question at reference host "
            "speed, spans + 100 % sampling on vs off "
            f"({1e3 * cpu_on:.3f} vs {1e3 * cpu_off:.3f} ms)",
        ],
    }
