"""Workload driver: drive the real server through the overload protocol.

The simulator's evaluation (Section 6.1) brings the cluster to a high
load state with a seeded question stream; the loadgen replays the *same
protocol* against the real serving layer — the identical Zipf-popular
question mix the benchmark of record uses, Poisson arrivals at a controlled
offered rate, one seed end to end — so real and simulated behaviour
under overload can be compared number for number.

Protocol
--------
1. **Calibrate**: a closed-loop burst through the worker pool measures
   the real saturation throughput (q/s with every service slot busy) and
   the mean per-question service time; the admission model's
   ``est_service_s`` is set so modelled capacity equals measured
   capacity.
2. **Sweep**: for each offered-load factor (default below / at / above
   saturation), submit the seeded stream open-loop at
   ``factor x saturation`` q/s and let admission shed what cannot be
   served in time.
3. **Account**: every run must conserve questions exactly
   (``answered + shed + drained == submitted``), and the overload run
   must shed rather than queue — its accepted-question p99 stays within
   ``3x`` of the at-saturation p99.

``run_loadgen`` returns a JSON-ready summary (``repro loadgen --output``
writes it); the accept/shed **decision digest** in each run
is byte-identical across ``--workers`` counts for a fixed rate and
service estimate, which the determinism regression test pins.
"""

from __future__ import annotations

import hashlib
import pathlib
import time
import typing as t
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..corpus import TrecQuestion
from ..observability.names import SERVING_BATCH_SIZE
from ..workload.arrivals import poisson_arrivals
from ..workload.metrics import summarize_samples
from .server import QAServer, ServerConfig
from .slo import SLOConfig
from .workers import InlineExecutor, ProcessWorkerPool

__all__ = [
    "LoadgenConfig",
    "format_serving",
    "run_loadgen",
    "zipf_workload",
]


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    """The overload protocol's own knobs, around the server it drives."""

    #: The server under load, declared once: corpus, admission discipline,
    #: workers, micro-batching, sampling.  Each run serves a
    #: ``dataclasses.replace`` of it — ``admission.est_service_s`` set to
    #: the estimate below, ``telemetry_path`` (when set) turned into one
    #: ``<stem>-<label><suffix>`` file per run, and, while sampling or
    #: telemetry is on and ``slo`` is unset, an SLO whose p99 target is
    #: the admission deadline.
    server: ServerConfig = field(default_factory=ServerConfig)
    #: Total questions per run (Zipf-repeated populars, like the bench).
    n_questions: int = 200
    #: Distinct questions the stream draws from.
    n_unique: int = 60
    #: Zipf popularity exponent of the question distribution.
    zipf_exponent: float = 1.1
    #: Seed of the question picks *and* the arrival schedule.
    workload_seed: int = 7
    #: Offered loads as multiples of measured saturation.
    load_factors: tuple[float, ...] = (0.5, 1.0, 2.0)
    #: Explicit offered rate (q/s); overrides ``load_factors`` with one
    #: run and skips saturation calibration.
    rate_qps: float | None = None
    #: Explicit admission service-time estimate; ``None`` calibrates it.
    est_service_s: float | None = None
    #: Closed-loop questions used to measure saturation.
    calibration_questions: int = 32
    #: Sleep to the arrival schedule (False floods as fast as possible;
    #: decisions are unchanged because they use scheduled times).
    pace: bool = True
    #: Keep the full per-question decision list in each run record.
    record_decisions: bool = False
    #: When set, the at-saturation run's stitched span stream is written
    #: here as a Chrome trace with stable per-process lanes.
    trace_out: str | None = None


def zipf_workload(
    questions: t.Sequence[TrecQuestion],
    n_questions: int,
    n_unique: int,
    zipf_exponent: float,
    seed: int,
) -> list[tuple[int, str]]:
    """The question stream: Zipf-popular repeated picks (rank ``r`` drawn
    with probability ∝ ``1/r^s``), so serving, the benchmark and the
    selection experiment all answer the same stream for the same seed.
    """
    unique = list(questions[: max(1, min(n_unique, len(questions)))])
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(unique) + 1) ** zipf_exponent
    weights /= weights.sum()
    picks = rng.choice(len(unique), size=n_questions, p=weights)
    return [(unique[i].qid, unique[i].text) for i in picks]


def _settle(server: QAServer, timeout_s: float) -> None:
    """Poll until every accepted question completed (or timeout)."""
    deadline = time.monotonic() + timeout_s
    while server.in_flight > 0 and time.monotonic() < deadline:
        if server.poll() == 0:
            time.sleep(0.001)


def _collect(pool: t.Any, n: int, timeout_s: float) -> list[t.Any]:
    """Poll ``pool`` until ``n`` completions arrived (or timeout)."""
    results = list(pool.poll())
    deadline = time.monotonic() + timeout_s
    while len(results) < n and time.monotonic() < deadline:
        got = pool.poll()
        if got:
            results.extend(got)
        else:
            time.sleep(0.001)
    return results


def _warm(
    pool: t.Any, workload: t.Sequence[tuple[int, str]], workers: int
) -> None:
    """Ask every distinct question once per worker, outside every ledger.

    A worker's first visit to a paragraph runs the entity recognizer over
    it and later visits do not, and its conjunction caches start empty;
    on a run of a few dozen questions that lazy set-up, not queueing,
    would set p99.  Each worker gets the distinct questions as one unit
    (a worker serves a unit whole, so while it is busy the next unit
    goes to an idle peer), and the completions are consumed here, before
    the server has anything in flight.
    """
    distinct = list(dict.fromkeys(workload))
    copies = max(1, workers)
    now = time.time()
    for c in range(copies):
        pool.submit(
            [
                (-1 - (c * len(distinct) + k), qid, text, now)
                for k, (qid, text) in enumerate(distinct)
            ]
        )
    expected = copies * len(distinct)
    returned = len(_collect(pool, expected, 120.0))
    if returned < expected:
        raise RuntimeError(
            f"warm-up incomplete: {returned}/{expected} questions returned"
        )


def _calibrate(
    config: LoadgenConfig, workload: t.Sequence[tuple[int, str]]
) -> dict[str, t.Any]:
    """Closed-loop burst: measure real saturation q/s and mean service."""
    server = config.server
    batch_max, workers = server.batch_max, server.workers
    k = config.calibration_questions
    if batch_max > 1:
        # Enough batch requests to keep every worker busy several rounds,
        # else request quantization (ceil(k/B) requests over W workers)
        # dominates the measurement instead of the batched service rate.
        k = max(k, batch_max * max(1, workers) * 4)
    k = max(1, min(k, len(workload)))
    items = list(workload[:k])
    if workers >= 1:
        pool: t.Any = ProcessWorkerPool(server.corpus, workers)
    else:
        from ..experiments.context import build_serving_context

        pool = InlineExecutor(build_serving_context(server.corpus).pipeline)
    pool.start()
    try:
        _warm(pool, workload, workers)
        t0 = time.time()
        # Mirror the server's micro-batcher: units of batch_max, so
        # calibration measures the *batched* saturation throughput.
        for i0 in range(0, k, batch_max):
            now = time.time()
            pool.submit(
                [
                    (i0 + j, qid, text, now)
                    for j, (qid, text) in enumerate(items[i0 : i0 + batch_max])
                ]
            )
        results = _collect(pool, k, 120.0)
        wall_s = max(time.time() - t0, 1e-9)
    finally:
        pool.drain(10.0)
        pool.stop()
    if len(results) < k:
        raise RuntimeError(
            f"calibration incomplete: {len(results)}/{k} questions returned"
        )
    service_mean_s = sum(r.service_s for r in results) / k
    saturation_qps = k / wall_s
    return {
        "n_questions": k,
        "wall_s": wall_s,
        "saturation_qps": saturation_qps,
        "service_mean_s": service_mean_s,
        #: Modelled per-question service such that ``max_concurrent``
        #: slots reproduce the measured capacity.
        "est_service_s": server.admission.max_concurrent / saturation_qps,
        "workers": pool.workers,
    }


def _telemetry_run_path(base: str, label: str) -> str:
    """Per-run telemetry file: ``<stem>-<label><suffix>`` next to base."""
    p = pathlib.Path(base)
    return str(p.with_name(f"{p.stem}-{label}{p.suffix or '.jsonl'}"))


def _run_once(
    config: LoadgenConfig,
    workload: t.Sequence[tuple[int, str]],
    rate_qps: float,
    est_service_s: float,
    label: str,
    load_factor: float | None,
    trace_path: str | None = None,
) -> dict[str, t.Any]:
    """One open-loop serving run at a fixed offered rate."""
    schedule = poisson_arrivals(
        len(workload), rate_qps, seed=config.workload_seed
    )
    base = config.server
    admission = replace(base.admission, est_service_s=est_service_s)
    telemetry_path = (
        _telemetry_run_path(base.telemetry_path, label)
        if base.telemetry_path
        else None
    )
    slo = base.slo
    if slo is None and (base.trace_sample_rate > 0 or telemetry_path):
        # The SLO latency objective mirrors the admission deadline: the
        # server judges retrospectively what admission promised.
        slo = SLOConfig(p99_target_s=admission.effective_deadline_s)
    server = QAServer(
        replace(base, admission=admission, slo=slo, telemetry_path=telemetry_path)
    )
    with server:
        _warm(server.pool, workload, base.workers)
        wall0 = time.time()
        for (qid, text), arrival in zip(workload, schedule):
            if config.pace:
                lag = (wall0 + arrival) - time.time()
                if lag > 0:
                    time.sleep(lag)
            server.submit(text, qid=qid, arrival_s=arrival)
            server.poll()
        _settle(server, base.drain_timeout_s)
        ledger = server.drain()
        makespan_s = max(time.time() - wall0, 1e-9)

        answered = [r for r in server.responses if r.answered]
        latencies = [r.latency_s for r in answered]
        waits = [r.admission_wait_s for r in answered]
        services = [r.service_s for r in answered]
        decision_key = server.admission.decision_key()
        digest = hashlib.sha256(repr(decision_key).encode("utf-8")).hexdigest()
        sources = [src for src, _ in server.pool.attach_report.values()]
        run: dict[str, t.Any] = {
            "label": label,
            "load_factor": load_factor,
            "offered_qps": rate_qps,
            "schedule_span_s": schedule[-1] if schedule else 0.0,
            "makespan_s": makespan_s,
            "throughput_qps": ledger.answered / makespan_s,
            "ledger": ledger.to_dict(),
            "latency_s": summarize_samples(latencies).to_dict(),
            "admission_wait_s": summarize_samples(waits).to_dict(),
            "service_s": summarize_samples(services).to_dict(),
            "attribution": server.attribution_summary(),
            "decision_digest": digest,
            "n_decisions": len(decision_key),
            "workers": {
                "n": base.workers,
                "attached_from_cache": sources.count("cache"),
                "built": sources.count("built"),
            },
            "conservation_ok": ledger.balanced,
        }
        # Micro-batch sharing, as recorded by the stage:PR-batch spans.
        batch_spans = [
            s
            for s in server.spans.spans
            if s.name == "stage:PR-batch" and "sharing_factor" in s.attrs
        ]
        run["batch"] = {
            "batch_max": base.batch_max,
            "n_batched_questions": len(batch_spans),
        }
        units = server.metrics.get(SERVING_BATCH_SIZE)
        if units is not None:  # dispatched units, singles included
            run["batch"]["units"] = units.count
            run["batch"]["unit_size_mean"] = units.mean
            run["batch"]["unit_size_max"] = units.max
        if batch_spans:
            run["batch"]["sharing_factor_mean"] = sum(
                s.attrs["sharing_factor"] for s in batch_spans
            ) / len(batch_spans)
            run["batch"]["amortized_postings_scanned_mean"] = sum(
                s.attrs["amortized_postings_scanned"] for s in batch_spans
            ) / len(batch_spans)
        # Stitched-trace sampling accounting (telemetry plane, PR 8).
        run["sampling"] = {
            "rate": base.trace_sample_rate,
            "sampled_answered": sum(1 for r in answered if r.sampled),
            "stitched_trees": sum(
                1 for s in server.spans.spans if s.name == "worker"
            ),
        }
        if server.slo is not None:
            run["slo"] = {
                "state": server.slo.state.value,
                "transitions": len(server.slo.transitions),
            }
        if server.telemetry is not None:
            run["telemetry"] = {
                "path": telemetry_path,
                "records": server.telemetry.records,
            }
        if trace_path:
            server.export_trace(trace_path)
            run["trace_out"] = trace_path
        if config.record_decisions:
            run["decisions"] = [list(k) for k in decision_key]
        return run


def _overload_check(
    runs: t.Sequence[dict[str, t.Any]],
    service_floor_s: float,
    ratio_limit: float = 3.0,
) -> dict[str, t.Any]:
    """The acceptance criteria: shed under overload, bounded p99, conserve.

    The p99 ratio denominator is floored at one mean service time — an
    at-saturation p99 cannot meaningfully be smaller, and the floor keeps
    the ratio from exploding on timer noise when the pipeline is fast.
    """
    conservation_ok = all(r["conservation_ok"] for r in runs)
    factored = [r for r in runs if r["load_factor"] is not None]
    out: dict[str, t.Any] = {
        "conservation_ok": conservation_ok,
        "ratio_limit": ratio_limit,
    }
    if not factored:
        out["ok"] = conservation_ok
        return out
    at_sat = min(factored, key=lambda r: abs(r["load_factor"] - 1.0))
    over = max(factored, key=lambda r: r["load_factor"])
    out["at_saturation"] = at_sat["label"]
    out["overload"] = over["label"]
    if over["load_factor"] < 2.0 or over is at_sat:
        out["ok"] = conservation_ok
        return out
    p99_sat = max(at_sat["latency_s"]["p99_s"], service_floor_s)
    p99_over = over["latency_s"]["p99_s"]
    ratio = p99_over / p99_sat if p99_sat > 0 else float("inf")
    shed_nonzero = over["ledger"]["shed"] > 0
    drained_zero = all(r["ledger"]["drained"] == 0 for r in factored)
    out.update(
        {
            "p99_at_saturation_s": at_sat["latency_s"]["p99_s"],
            "p99_overload_s": p99_over,
            "p99_ratio": ratio,
            "p99_within_limit": ratio <= ratio_limit,
            "shed_nonzero_at_overload": shed_nonzero,
            "clean_drain": drained_zero,
            "ok": (
                conservation_ok
                and shed_nonzero
                and drained_zero
                and ratio <= ratio_limit
            ),
        }
    )
    return out


def run_loadgen(config: LoadgenConfig | None = None) -> dict[str, t.Any]:
    """Run the full overload protocol against the real serving layer."""
    config = config or LoadgenConfig()
    from ..experiments.context import build_context

    server = config.server
    ctx = build_context(server.corpus)
    workload = zipf_workload(
        ctx.questions,
        config.n_questions,
        config.n_unique,
        config.zipf_exponent,
        config.workload_seed,
    )

    calibration: dict[str, t.Any]
    if config.rate_qps is not None and config.est_service_s is not None:
        calibration = {
            "skipped": True,
            "est_service_s": config.est_service_s,
            "service_mean_s": config.est_service_s,
        }
    else:
        calibration = _calibrate(config, workload)
    est_service_s = (
        config.est_service_s
        if config.est_service_s is not None
        else calibration["est_service_s"]
    )
    saturation_qps = calibration.get(
        "saturation_qps", server.admission.max_concurrent / est_service_s
    )

    runs: list[dict[str, t.Any]] = []
    if config.rate_qps is not None:
        runs.append(
            _run_once(
                config,
                workload,
                config.rate_qps,
                est_service_s,
                label=f"{config.rate_qps:g}qps",
                load_factor=None,
                trace_path=config.trace_out,
            )
        )
    else:
        # The stitched Chrome trace is exported from the run closest to
        # saturation — the point the paper's timelines are drawn at.
        trace_factor = min(
            config.load_factors, key=lambda f: abs(f - 1.0), default=None
        )
        for factor in config.load_factors:
            runs.append(
                _run_once(
                    config,
                    workload,
                    factor * saturation_qps,
                    est_service_s,
                    label=f"{factor:g}x",
                    load_factor=factor,
                    trace_path=(
                        config.trace_out if factor == trace_factor else None
                    ),
                )
            )

    overload = _overload_check(
        runs, service_floor_s=calibration.get("service_mean_s", est_service_s)
    )

    return {
        "schema": "bench_serving/v3",
        "config": asdict(config),
        "batch": {
            "batch_max": server.batch_max,
            "batch_wait_s": server.batch_wait_s,
        },
        "workload": {
            "n_questions": config.n_questions,
            "n_unique": config.n_unique,
            "zipf_exponent": config.zipf_exponent,
            "seed": config.workload_seed,
        },
        "telemetry": {
            "trace_sample_rate": server.trace_sample_rate,
            "trace_seed": server.trace_seed,
            "telemetry_out": server.telemetry_path,
            "trace_out": config.trace_out,
            "sampled_answered": sum(
                r["sampling"]["sampled_answered"] for r in runs
            ),
            "stitched_trees": sum(
                r["sampling"]["stitched_trees"] for r in runs
            ),
        },
        "calibration": calibration,
        "saturation_qps": saturation_qps,
        "runs": runs,
        "overload": overload,
        "ok": overload.get("ok", False) and all(
            r["conservation_ok"] for r in runs
        ),
    }


def format_serving(summary: dict[str, t.Any]) -> str:
    """Render the sweep as an ASCII report section."""
    lines: list[str] = []
    title = "Serving — admission-controlled real pipeline under offered load"
    lines.append(title)
    lines.append("=" * len(title))
    cal = summary["calibration"]
    if not cal.get("skipped"):
        lines.append(
            f"calibration: saturation {cal['saturation_qps']:.1f} q/s, "
            f"mean service {cal['service_mean_s'] * 1e3:.2f} ms "
            f"({cal['workers']} workers, closed loop over "
            f"{cal['n_questions']} questions)"
        )
    header = (
        f"{'run':<8} | {'offered':>8} | {'answered':>8} | {'shed':>6} | "
        f"{'drain':>5} | {'q/s':>7} | {'p50 ms':>8} | {'p99 ms':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for run in summary["runs"]:
        led = run["ledger"]
        lat = run["latency_s"]
        lines.append(
            f"{run['label']:<8} | {run['offered_qps']:>8.1f} | "
            f"{led['answered']:>8} | {led['shed']:>6} | "
            f"{led['drained']:>5} | {run['throughput_qps']:>7.1f} | "
            f"{lat['p50_s'] * 1e3:>8.2f} | {lat['p99_s'] * 1e3:>8.2f}"
        )
    bat = summary.get("batch") or {}
    if bat.get("batch_max", 1) > 1:
        sharings = [
            r["batch"]["sharing_factor_mean"]
            for r in summary["runs"]
            if r.get("batch", {}).get("sharing_factor_mean")
        ]
        mean_txt = (
            f", mean sharing {sum(sharings) / len(sharings):.2f}"
            if sharings
            else ""
        )
        lines.append(
            f"micro-batching: up to {bat['batch_max']} questions per worker "
            f"request while every worker is busy (age bound "
            f"{bat.get('batch_wait_s', 0.0) * 1e3:.1f} ms)"
            f"{mean_txt}"
        )
    tel = summary.get("telemetry") or {}
    if tel.get("trace_sample_rate"):
        lines.append(
            f"telemetry: head-sampling {tel['trace_sample_rate']:.0%} "
            f"(seed {tel.get('trace_seed', 0)}), "
            f"{tel.get('stitched_trees', 0)} stitched traces"
        )
    over = summary["overload"]
    if "p99_ratio" in over:
        lines.append(
            f"overload p99 ratio {over['p99_ratio']:.2f} "
            f"(limit {over['ratio_limit']:.1f}x of at-saturation), "
            f"shed at overload: "
            f"{'yes' if over['shed_nonzero_at_overload'] else 'NO'}"
        )
    lines.append(
        "conservation: "
        + (
            "balanced in all runs"
            if over["conservation_ok"]
            else "IMBALANCED — questions lost or double-counted"
        )
    )
    return "\n".join(lines)
