"""Command-line interface: ``python -m repro <command>``.

Commands
--------
ask         answer a free-form question over the generated corpus
simulate    run a workload on the simulated distributed cluster
chaos       randomized fault-injection campaign (fault rates x strategies)
model       analytical capacity planning for given bandwidths
experiments regenerate any of the paper's tables/figures and the
            extension experiments, e.g. ``ext-scale`` (weak-scaling sweep
            with the Eq 23 cross-check) and ``ext-selection`` (collection-
            selector quality); see ``python -m repro.experiments.runner``
observe     traced SEND/ISEND/RECV workload with span export (Chrome
            trace + JSONL) and overhead attribution vs the Section 5
            model; fails if any export or the attribution sum invariant
            is invalid
serve       long-lived admission-controlled server over the real
            pipeline: worker processes attach to the shared packed-index
            artifact, questions arrive on stdin, overload is shed with a
            typed error; prints the conservation ledger on drain
loadgen     drive the server through the Section 6.1 overload protocol
            (seeded Zipf stream at offered loads below/at/above measured
            saturation); with ``--check-overload``, fails unless overload
            sheds load, accepted-p99 stays bounded, and question
            conservation holds; ``--output`` writes the summary as JSON
top         text dashboard over a telemetry JSONL file written by
            ``serve``/``loadgen`` (live with ``--follow``)

``chaos`` and ``experiments`` (alias ``exp``) accept ``--jobs N`` (or
``auto``) to run independent experiment cells on a process pool;
parallel output is byte-identical to serial.  Speed is measured by the
benchmark of record, ``python3 bench/run.py``, not by a subcommand.
"""

from __future__ import annotations

import argparse
import sys
import typing as t

__all__ = ["main"]


def _cmd_ask(args: argparse.Namespace) -> None:
    from .experiments.context import default_context

    ctx = default_context()
    result = ctx.pipeline.answer(args.question)
    if not result.answers:
        print("No answer found.")
        return
    print(f"Answer type : {result.processed.answer_type.value}")
    print(
        "Keywords    : "
        + ", ".join(k.text for k in result.processed.keywords)
    )
    print(f"Paragraphs  : {result.n_retrieved} retrieved, {result.n_accepted} accepted")
    print("\nTop answers:")
    for i, answer in enumerate(result.answers, 1):
        print(f"  {i}. {answer.text}  (score {answer.score:.2f})")
        print(f"     ...{answer.short}...")


def _cmd_simulate(args: argparse.Namespace) -> None:
    from .core import DistributedQASystem, Strategy, SystemConfig
    from .workload import (
        high_load_count,
        staggered_arrivals,
        summarize_latencies,
        trec_mix_profiles,
    )

    n_questions = args.questions or high_load_count(args.nodes)
    profiles = trec_mix_profiles(n_questions, seed=args.seed)
    arrivals = staggered_arrivals(n_questions, args.stagger, seed=args.seed)
    system = DistributedQASystem(
        SystemConfig(
            n_nodes=args.nodes,
            strategy=Strategy[args.strategy],
            seed=args.seed,
        )
    )
    report = system.run_workload(profiles, arrivals)
    print(
        f"{args.strategy} on {args.nodes} nodes, {n_questions} questions "
        f"(seed {args.seed}):"
    )
    print(f"  throughput : {report.throughput_qpm:.2f} questions/min")
    print(f"  makespan   : {report.makespan_s:.1f} s")
    print(f"  response   : {summarize_latencies(report)}")
    print(
        f"  migrations : QA {report.migrations_qa}, PR {report.migrations_pr},"
        f" AP {report.migrations_ap}"
    )


def _cmd_chaos(args: argparse.Namespace) -> None:
    from .core import PartitioningStrategy
    from .experiments.chaos_campaign import format_campaign, run_campaign

    strategies = [PartitioningStrategy[s] for s in args.strategies]
    try:
        cells = run_campaign(
            n_nodes=args.nodes,
            n_questions=args.questions,
            strategies=strategies,
            fault_rates=args.fault_rates,
            seed=args.seed,
            jobs=args.jobs,
            retry_budget=args.retry_budget,
            mean_downtime_s=args.mean_downtime,
            min_live_nodes=args.min_live,
        )
    except ValueError as exc:  # bad knob combination: usage error
        raise SystemExit(f"chaos: invalid configuration: {exc}") from exc
    except RuntimeError as exc:  # unaccounted questions: hard failure
        raise SystemExit(f"chaos campaign FAILED: {exc}") from exc
    print(
        f"Chaos campaign on {args.nodes} nodes, {args.questions} questions"
        f"/cell, seed {args.seed} (reproduce any cell with the same seed):"
    )
    print(format_campaign(cells))
    lost = sum(c.accounting.lost for c in cells)
    retries = sum(c.accounting.retries for c in cells)
    print(
        f"accounting OK in all {len(cells)} cells "
        f"(total lost {lost}, total front-end retries {retries})"
    )


def _cmd_model(args: argparse.Namespace) -> None:
    from .model import (
        ModelParameters,
        bandwidth_bps,
        practical_processor_limit,
        question_speedup,
        question_time,
        system_efficiency,
    )

    p = ModelParameters().with_bandwidths(
        b_net=bandwidth_bps(args.net), b_disk=bandwidth_bps(args.disk)
    )
    n_max = practical_processor_limit(p)
    print(f"Analytical model @ net={args.net}, disk={args.disk}:")
    print(f"  sequential question time      : {p.t_sequential:.1f} s")
    print(f"  practical processor limit     : {n_max}")
    print(
        f"  question time / speedup there : {question_time(p, n_max):.1f} s /"
        f" {question_speedup(p, n_max):.1f}x"
    )
    for n in (10, 100, 1000):
        print(f"  system efficiency at {n:5d}    : {system_efficiency(p, n):.3f}")


def _cmd_observe(args: argparse.Namespace) -> None:
    from .observability import ObserveConfig, format_observe, run_observe

    config = ObserveConfig(
        n_nodes=args.nodes,
        questions_per_node=args.questions_per_node,
        strategies=tuple(args.strategies),
        seed=args.seed,
        dispatch_scan_cpu_s=args.dispatch_cost,
        output_dir=args.output_dir,
    )
    summary = run_observe(config)
    print(format_observe(summary))
    if not summary["ok"]:
        raise SystemExit("observe FAILED: export or attribution check failed")


def _cmd_experiments(args: argparse.Namespace) -> None:
    from .experiments.runner import run_all

    run_all(args.names or None, jobs=args.jobs)


def _cmd_serve(args: argparse.Namespace) -> None:
    import sys as _sys
    import time as _time

    from .corpus import CorpusConfig
    from .serving import AdmissionConfig, QAServer, ServerConfig

    config = ServerConfig(
        corpus=CorpusConfig(seed=args.corpus_seed),
        admission=AdmissionConfig(
            max_concurrent=args.admit_concurrency,
            max_queue_depth=args.queue_depth,
            est_service_s=args.service_time,
            deadline_s=args.deadline,
            rate_limit_qps=args.rate_limit,
        ),
        workers=args.workers,
        drain_timeout_s=args.drain_timeout,
        trace_sample_rate=args.sample,
        trace_seed=args.trace_seed,
        telemetry_path=args.telemetry,
    )
    server = QAServer(config)
    print(
        f"starting {args.workers} worker(s) "
        f"(admission: {args.admit_concurrency} concurrent, "
        f"queue depth {args.queue_depth}) ...",
        file=_sys.stderr,
    )
    qid = 0
    with server:
        attach = server.pool.attach_report if server.pool is not None else {}
        sources = [src for src, _ in attach.values()]
        print(
            f"ready: {sources.count('cache')} worker(s) attached to the "
            f"packed-index artifact, {sources.count('built')} rebuilt; "
            "one question per line, EOF or Ctrl-C drains",
            file=_sys.stderr,
        )
        try:
            for line in _sys.stdin:
                text = line.strip()
                if not text:
                    continue
                decision = server.submit(text, qid=qid)
                if not decision.accepted:
                    reason = decision.shed_reason
                    print(
                        f"[{qid}] OVERLOAD({reason.value if reason else '?'}): "
                        f"queue depth {decision.queue_depth}, predicted wait "
                        f"{decision.predicted_wait_s * 1e3:.1f} ms"
                    )
                qid += 1
                # Surface any finished answers without blocking the REPL.
                server.poll()
                _print_new_answers(server)
        except KeyboardInterrupt:
            print("interrupt: draining ...", file=_sys.stderr)
        deadline = _time.monotonic() + args.drain_timeout
        while server.in_flight > 0 and _time.monotonic() < deadline:
            if server.poll() == 0:
                _time.sleep(0.005)
            _print_new_answers(server)
        ledger = server.drain()
        _print_new_answers(server)
    print(f"drained: {ledger}", file=_sys.stderr)
    if not ledger.balanced:
        raise SystemExit("serve FAILED: conservation ledger imbalanced")


_printed_responses = 0


def _print_new_answers(server: t.Any) -> bool:
    """Print answered responses not yet shown; True when any were printed."""
    global _printed_responses
    new = server.responses[_printed_responses:]
    if not new:
        return False
    for r in new:
        if r.answered:
            top = r.answers[0][0] if r.answers else "(no answer)"
            print(
                f"[{r.qid}] {top}  "
                f"(latency {r.latency_s * 1e3:.1f} ms, "
                f"wait {r.admission_wait_s * 1e3:.1f} ms, "
                f"worker {r.worker_pid})"
            )
    _printed_responses = len(server.responses)
    return True


def _cmd_loadgen(args: argparse.Namespace) -> None:
    import json

    from .corpus import CorpusConfig
    from .serving import (
        LoadgenConfig,
        format_serving,
        run_loadgen,
    )

    config = LoadgenConfig(
        corpus=CorpusConfig(seed=args.corpus_seed),
        n_questions=args.questions,
        n_unique=args.unique,
        zipf_exponent=args.zipf,
        workload_seed=args.seed,
        workers=args.workers,
        load_factors=tuple(args.load_factors),
        rate_qps=args.rate,
        est_service_s=args.service_time,
        max_concurrent=args.admit_concurrency,
        max_queue_depth=args.queue_depth,
        deadline_s=args.deadline,
        rate_limit_qps=args.rate_limit,
        pace=not args.no_pace,
        drain_timeout_s=args.drain_timeout,
        record_decisions=args.decisions_out is not None,
        batch_max=args.batch,
        batch_wait_s=args.batch_wait,
        trace_sample_rate=args.sample,
        trace_seed=args.trace_seed,
        telemetry_out=args.telemetry,
        trace_out=args.trace_out,
        measure_overhead=args.measure_obs_overhead,
    )
    summary = run_loadgen(config)
    print(format_serving(summary))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    if args.decisions_out:
        decisions = {
            run["label"]: run.get("decisions", []) for run in summary["runs"]
        }
        with open(args.decisions_out, "w") as fh:
            json.dump(decisions, fh, indent=1, sort_keys=True)
        print(f"wrote {args.decisions_out}")
    if not all(r["conservation_ok"] for r in summary["runs"]):
        raise SystemExit(
            "loadgen FAILED: question conservation violated "
            "(answered + shed + drained != submitted)"
        )
    if args.check_overload and not summary["overload"].get("ok", False):
        raise SystemExit(
            "loadgen FAILED: overload criteria not met "
            f"({json.dumps(summary['overload'], default=str)})"
        )


def _cmd_top(args: argparse.Namespace) -> None:
    from .serving import run_top

    try:
        run_top(args.telemetry, follow=args.follow, interval_s=args.interval)
    except BrokenPipeError:
        # `repro top | head` closing the pipe is a normal way to stop.
        import os
        import sys

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os._exit(0)


def main(argv: t.Sequence[str] | None = None) -> None:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Q/A system reproduction (IPPS 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ask = sub.add_parser("ask", help="answer a question over the demo corpus")
    ask.add_argument("question", help="natural-language question text")
    ask.set_defaults(func=_cmd_ask)

    sim = sub.add_parser("simulate", help="run a simulated cluster workload")
    sim.add_argument("--nodes", type=int, default=8)
    sim.add_argument(
        "--strategy", choices=["DNS", "INTER", "DQA"], default="DQA"
    )
    sim.add_argument(
        "--questions", type=int, default=None,
        help="question count (default: the 8N high-load protocol)",
    )
    sim.add_argument("--stagger", type=float, default=2.0)
    sim.add_argument("--seed", type=int, default=11)
    sim.set_defaults(func=_cmd_simulate)

    chaos = sub.add_parser(
        "chaos", help="randomized fault-injection campaign"
    )
    chaos.add_argument("--nodes", type=int, default=6)
    chaos.add_argument("--questions", type=int, default=12)
    chaos.add_argument(
        "--strategies", nargs="*", choices=["SEND", "ISEND", "RECV"],
        default=["SEND", "ISEND", "RECV"],
    )
    chaos.add_argument(
        "--fault-rates", type=float, nargs="*",
        default=[0.0, 1.0 / 400.0, 1.0 / 150.0],
        help="expected crashes per node per second (sweep values)",
    )
    chaos.add_argument("--seed", type=int, default=11)
    chaos.add_argument(
        "--retry-budget", type=int, default=3,
        help="front-end re-admissions per lost-host question",
    )
    chaos.add_argument("--mean-downtime", type=float, default=30.0)
    chaos.add_argument(
        "--min-live", type=int, default=2,
        help="schedules never drop the live node count below this",
    )
    chaos.add_argument(
        "-j", "--jobs", default=None,
        help="parallel cell workers (integer or 'auto'; default serial); "
        "output is byte-identical to a serial run",
    )
    chaos.set_defaults(func=_cmd_chaos)

    model = sub.add_parser("model", help="analytical capacity planning")
    model.add_argument("--net", default="100 Mbps", help='e.g. "1 Gbps"')
    model.add_argument("--disk", default="250 Mbps", help='e.g. "250 Mbps"')
    model.set_defaults(func=_cmd_model)

    observe = sub.add_parser(
        "observe",
        help="traced workload with span export and overhead attribution",
    )
    observe.add_argument("--nodes", type=int, default=16)
    observe.add_argument(
        "--questions-per-node", type=int, default=2,
        help="questions per node per strategy run",
    )
    observe.add_argument(
        "--strategies", nargs="*", choices=["SEND", "ISEND", "RECV"],
        default=["SEND", "ISEND", "RECV"],
        help="AP partitioning strategies to trace (PR always uses RECV)",
    )
    observe.add_argument("--seed", type=int, default=11)
    observe.add_argument(
        "--dispatch-cost", type=float, default=1e-5,
        help="Eq 15 per-node dispatch scan cost in CPU seconds "
        "(0 = the paper-faithful instantaneous dispatch)",
    )
    observe.add_argument(
        "--output-dir", default="observe_out",
        help="directory for trace_*.json, spans_*.jsonl, attribution.json",
    )
    observe.set_defaults(func=_cmd_observe)

    exp = sub.add_parser(
        "experiments",
        aliases=["exp"],
        help="regenerate the paper's tables and figures",
    )
    exp.add_argument("names", nargs="*", help="subset (default: all)")
    exp.add_argument(
        "-j", "--jobs", default=None,
        help="parallel section workers (integer or 'auto'; default serial)",
    )
    exp.set_defaults(func=_cmd_experiments)

    serve = sub.add_parser(
        "serve",
        help="long-lived admission-controlled server (questions on stdin)",
    )
    serve.add_argument(
        "--workers", type=int, default=3,
        help="worker processes (0 = inline execution)",
    )
    serve.add_argument("--corpus-seed", type=int, default=7)
    serve.add_argument(
        "--admit-concurrency", type=int, default=3,
        help="modeled in-service slots (the paper's FIFO-of-3)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=4,
        help="bounded admission queue length before QUEUE_FULL sheds",
    )
    serve.add_argument(
        "--service-time", type=float, default=0.05,
        help="estimated seconds per question for wait prediction",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-question deadline seconds (default: 6x service time)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-client token-bucket q/s (0 = unlimited)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=60.0,
        help="seconds in-flight questions get to finish at shutdown",
    )
    serve.add_argument(
        "--sample", type=float, default=0.0,
        help="head-sampling rate for stitched worker traces in [0, 1] "
        "(deterministic per seed+seq; decided after admission)",
    )
    serve.add_argument(
        "--trace-seed", type=int, default=0, help="head-sampler seed",
    )
    serve.add_argument(
        "--telemetry", default=None,
        help="stream telemetry/v1 JSONL records to this path "
        "(tail it live with `repro top --follow`)",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="overload protocol: Zipf stream at offered loads around saturation",
    )
    loadgen.add_argument(
        "--questions", type=int, default=200,
        help="questions per offered-load run",
    )
    loadgen.add_argument(
        "--unique", type=int, default=60,
        help="distinct questions in the Zipf pool",
    )
    loadgen.add_argument(
        "--zipf", type=float, default=1.1, help="Zipf exponent",
    )
    loadgen.add_argument(
        "--seed", type=int, default=7, help="workload + arrival seed",
    )
    loadgen.add_argument("--corpus-seed", type=int, default=7)
    loadgen.add_argument(
        "--workers", type=int, default=3,
        help="worker processes (0 = inline execution)",
    )
    loadgen.add_argument(
        "--load-factors", type=float, nargs="+", default=[0.5, 1.0, 2.0],
        help="offered load as multiples of measured saturation",
    )
    loadgen.add_argument(
        "--rate", type=float, default=None,
        help="explicit offered q/s (skips calibration; needs --service-time)",
    )
    loadgen.add_argument(
        "--service-time", type=float, default=None,
        help="explicit est service seconds (skips calibration with --rate)",
    )
    loadgen.add_argument(
        "--admit-concurrency", type=int, default=3,
        help="modeled in-service slots (the paper's FIFO-of-3)",
    )
    loadgen.add_argument(
        "--queue-depth", type=int, default=4,
        help="bounded admission queue length before QUEUE_FULL sheds",
    )
    loadgen.add_argument(
        "--deadline", type=float, default=None,
        help="per-question deadline seconds (default: 6x service time)",
    )
    loadgen.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-client token-bucket q/s (0 = unlimited)",
    )
    loadgen.add_argument(
        "--no-pace", action="store_true",
        help="submit the whole schedule immediately (decisions unchanged)",
    )
    loadgen.add_argument("--drain-timeout", type=float, default=60.0)
    loadgen.add_argument(
        "--batch", type=int, default=1,
        help="serving micro-batch size: while every worker is busy, "
        "accepted questions are grouped up to B per answer_batch worker "
        "request (1 = unbatched; admission decisions and their digest "
        "are unchanged)",
    )
    loadgen.add_argument(
        "--batch-wait", type=float, default=0.005,
        help="seconds the oldest buffered request may wait before a "
        "partial micro-batch is queued behind the busy workers",
    )
    loadgen.add_argument(
        "--decisions-out", default=None,
        help="also dump the per-run admission decision sequences as JSON",
    )
    loadgen.add_argument(
        "--output", default=None,
        help="also write the JSON summary to this path",
    )
    loadgen.add_argument(
        "--check-overload", action="store_true",
        help="exit nonzero unless the overload criteria hold "
        "(nonzero shed, bounded accepted-p99, exact conservation)",
    )
    loadgen.add_argument(
        "--sample", type=float, default=0.0,
        help="head-sampling rate for stitched worker traces in [0, 1]",
    )
    loadgen.add_argument(
        "--trace-seed", type=int, default=0, help="head-sampler seed",
    )
    loadgen.add_argument(
        "--telemetry", default=None,
        help="base path for per-run telemetry/v1 JSONL files "
        "(<stem>-<label><suffix>)",
    )
    loadgen.add_argument(
        "--trace-out", default=None,
        help="write the at-saturation run's stitched spans as a Chrome "
        "trace with one lane per process",
    )
    loadgen.add_argument(
        "--measure-obs-overhead", action="store_true",
        help="re-run the at-saturation point with observability off and "
        "record the throughput overhead in the summary",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    top = sub.add_parser(
        "top",
        help="text dashboard over a telemetry.jsonl file (live or finished)",
    )
    top.add_argument(
        "--telemetry", default="telemetry.jsonl",
        help="telemetry/v1 JSONL file written by serve/loadgen",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="keep re-reading the file every --interval seconds",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period with --follow",
    )
    top.set_defaults(func=_cmd_top)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":  # pragma: no cover
    main()
