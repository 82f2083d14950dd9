"""Command-line interface: ``python -m repro <command>``.

Commands
--------
ask         answer a free-form question over the generated corpus
simulate    run a workload on the simulated distributed cluster
chaos       randomized fault-injection campaign (fault rates x strategies)
model       analytical capacity planning for given bandwidths
experiments regenerate any of the paper's tables/figures and the extension
            experiments (``ext-scale``, ``ext-chaos``, ...), all or by name
observe     traced SEND/ISEND/RECV workload with span export and overhead
            attribution vs the Section 5 model; fails if a check does
serve       long-lived admission-controlled server over the real pipeline:
            questions on stdin, overload shed with a typed reason, the
            conservation ledger printed on drain
loadgen     drive that server through the Section 6.1 overload protocol
            (seeded Zipf stream below/at/above measured saturation);
            ``--check-overload`` fails unless overload sheds, accepted p99
            stays bounded and every question is accounted for
top         text dashboard over a telemetry JSONL file of ``serve``/``loadgen``

Every subcommand is one row of ``_COMMANDS`` and every flag is declared
once; ``serve`` and ``loadgen`` build their ``ServerConfig`` from the same
flags in one place.  ``chaos`` and ``experiments`` (alias ``exp``) take
``--jobs``; parallel output is byte-identical to serial.  Speed is the
benchmark of record's, ``python3 bench/run.py``, never a subcommand's.
"""

from __future__ import annotations

import argparse
import sys
import typing as t

__all__ = ["build_parser", "main"]


def _cmd_ask(args: argparse.Namespace) -> None:
    from .experiments.context import default_context

    ctx = default_context()
    result = ctx.pipeline.answer(args.question)
    if not result.answers:
        print("No answer found.")
        return
    print(f"Answer type : {result.processed.answer_type.value}")
    print("Keywords    : " + ", ".join(k.text for k in result.processed.keywords))
    print(f"Paragraphs  : {result.n_retrieved} retrieved, {result.n_accepted} accepted")
    print("\nTop answers:")
    for i, answer in enumerate(result.answers, 1):
        print(f"  {i}. {answer.text}  (score {answer.score:.2f})")
        print(f"     ...{answer.short}...")


def _cmd_simulate(args: argparse.Namespace) -> None:
    from . import workload as w
    from .core import DistributedQASystem, Strategy, SystemConfig

    try:
        config = SystemConfig(
            n_nodes=args.nodes, strategy=Strategy[args.strategy], seed=args.seed
        )
        report = w.run_high_load(
            DistributedQASystem(config), args.seed, args.questions, args.stagger
        )
    except ValueError as exc:  # bad input: usage error, not a traceback
        raise SystemExit(f"simulate: invalid configuration: {exc}") from exc
    print(
        f"{args.strategy} on {args.nodes} nodes, {report.n_admitted} questions "
        f"(seed {args.seed}):"
    )
    print(f"  throughput : {report.throughput_qpm:.2f} questions/min")
    print(f"  makespan   : {report.makespan_s:.1f} s")
    print(f"  response   : {w.summarize_latencies(report)}")
    print(
        f"  migrations : QA {report.migrations_qa}, PR {report.migrations_pr},"
        f" AP {report.migrations_ap}"
    )


def _cmd_chaos(args: argparse.Namespace) -> None:
    from .core import PartitioningStrategy
    from .experiments.chaos_campaign import format_campaign, run_campaign

    try:
        cells = run_campaign(
            n_nodes=args.nodes,
            n_questions=args.questions,
            strategies=[PartitioningStrategy[s] for s in args.strategies],
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
    from . import model as m

    p = m.ModelParameters().with_bandwidths(
        b_net=m.bandwidth_bps(args.net), b_disk=m.bandwidth_bps(args.disk)
    )
    n_max = m.practical_processor_limit(p)
    print(f"Analytical model @ net={args.net}, disk={args.disk}:")
    print(f"  sequential question time      : {p.t_sequential:.1f} s")
    print(f"  practical processor limit     : {n_max}")
    print(
        f"  question time / speedup there : {m.question_time(p, n_max):.1f} s /"
        f" {m.question_speedup(p, n_max):.1f}x"
    )
    for n in (10, 100, 1000):
        print(f"  system efficiency at {n:5d}    : {m.system_efficiency(p, n):.3f}")


def _cmd_observe(args: argparse.Namespace) -> None:
    from .observability import ObserveConfig, format_observe, run_observe

    summary = run_observe(ObserveConfig(
        n_nodes=args.nodes,
        questions_per_node=args.questions_per_node,
        strategies=tuple(args.strategies),
        seed=args.seed,
        dispatch_scan_cpu_s=args.dispatch_cost,
        output_dir=args.output_dir,
    ))
    print(format_observe(summary))
    if not summary["ok"]:
        raise SystemExit("observe FAILED: export or attribution check failed")


def _cmd_experiments(args: argparse.Namespace) -> None:
    from .experiments.runner import run_all

    run_all(args.names or None, jobs=args.jobs)


def _server_config(args: argparse.Namespace) -> t.Any:
    """The ``ServerConfig`` the shared server flags describe."""
    from dataclasses import replace

    from .corpus import CorpusConfig
    from .serving import AdmissionConfig, ServerConfig

    admission = AdmissionConfig(
        max_concurrent=args.admit_concurrency,
        max_queue_depth=args.queue_depth,
        deadline_s=args.deadline,
    )
    if args.service_time is not None:  # loadgen calibrates it otherwise
        admission = replace(admission, est_service_s=args.service_time)
    return ServerConfig(
        corpus=CorpusConfig(seed=args.corpus_seed),
        admission=admission,
        workers=args.workers,
        drain_timeout_s=args.drain_timeout,
        trace_sample_rate=args.sample,
        trace_seed=args.trace_seed,
        telemetry_path=args.telemetry,
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    import time

    from .serving import QAServer

    server = QAServer(_server_config(args))
    print(
        f"starting {args.workers} worker(s) "
        f"(admission: {args.admit_concurrency} concurrent, "
        f"queue depth {args.queue_depth}) ...",
        file=sys.stderr,
    )
    qid = 0
    printed = 0  # cursor into server.responses: what was already shown
    with server:
        sources = [src for src, _ in server.pool.attach_report.values()]
        print(
            f"ready: {sources.count('cache')} worker(s) attached to the "
            f"packed-index artifact, {sources.count('built')} rebuilt; "
            "one question per line, EOF or Ctrl-C drains",
            file=sys.stderr,
        )
        try:
            for line in sys.stdin:
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
                printed = _print_new_answers(server, printed)
        except KeyboardInterrupt:
            print("interrupt: draining ...", file=sys.stderr)
        # One --drain-timeout covers the wait here and the drain together.
        deadline = time.monotonic() + args.drain_timeout
        while server.in_flight > 0 and time.monotonic() < deadline:
            if server.poll() == 0:
                time.sleep(0.005)
            printed = _print_new_answers(server, printed)
        ledger = server.drain(max(0.0, deadline - time.monotonic()))
        _print_new_answers(server, printed)
    print(f"drained: {ledger}", file=sys.stderr)
    if not ledger.balanced:
        raise SystemExit("serve FAILED: conservation ledger imbalanced")


def _print_new_answers(server: t.Any, printed: int) -> int:
    """Print the answered responses from ``printed`` on; returns the new cursor."""
    for r in server.responses[printed:]:
        if r.answered:
            top = r.answers[0][0] if r.answers else "(no answer)"
            print(
                f"[{r.qid}] {top}  "
                f"(latency {r.latency_s * 1e3:.1f} ms, "
                f"wait {r.admission_wait_s * 1e3:.1f} ms, "
                f"worker {r.worker_pid})"
            )
    return len(server.responses)


def _cmd_loadgen(args: argparse.Namespace) -> None:
    import json
    from dataclasses import replace

    from .serving import LoadgenConfig, format_serving, run_loadgen

    summary = run_loadgen(LoadgenConfig(
        server=replace(_server_config(args), batch_max=args.batch),
        n_questions=args.questions,
        n_unique=args.unique,
        zipf_exponent=args.zipf,
        workload_seed=args.seed,
        load_factors=tuple(args.load_factors),
        rate_qps=args.rate,
        est_service_s=args.service_time,
        trace_out=args.trace_out,
    ))
    print(format_serving(summary))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
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
    except ValueError as exc:  # an old schema, or a header with no SLO target
        raise SystemExit(f"top: {exc}") from exc
    except BrokenPipeError:
        # `repro top | head` closing the pipe is a normal way to stop.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os._exit(0)


# -- the command table ------------------------------------------------------------
# A flag is declared once, as the arguments ``add_argument`` will get; a
# command row lists the flags it takes and, where it wants a default
# other than the declaration's, names it in ``defaults``.
_Flag = tuple[tuple[str, ...], dict[str, t.Any]]


def _flag(*names: str, **kwargs: t.Any) -> _Flag:
    return names, kwargs


_PARTITIONINGS = ["SEND", "ISEND", "RECV"]
_NODES = _flag("--nodes", type=int)
_SEED = _flag("--seed", type=int, default=11,
              help="seed of the question stream, its arrivals and any faults")
_QUESTIONS = _flag("--questions", type=int,
                   help="questions per run, chaos cell or offered load (simulate: 8N)")
_JOBS = _flag("-j", "--jobs", default=None,
              help="parallel workers, N or 'auto' (output is byte-identical to serial)")
_TELEMETRY = _flag("--telemetry", default=None,
                   help="telemetry/v3 JSONL path: serve streams to it, loadgen to "
                   "one <stem>-<label><suffix> per run next to it, top reads it")
#: The simulated cluster, as ``chaos`` and ``observe`` take it.
_CLUSTER = [
    _NODES,
    _SEED,
    _flag("--strategies", nargs="*", choices=_PARTITIONINGS, default=_PARTITIONINGS,
          help="partitioning strategies to run (observe: AP only, PR uses RECV)"),
]
#: Everything ``_server_config`` reads; ``serve`` and ``loadgen`` both take it.
_SERVER = [
    _flag("--workers", type=int, default=3, help="worker processes (0 = inline)"),
    _flag("--corpus-seed", type=int, default=7),
    _flag("--admit-concurrency", type=int, default=3,
          help="modeled in-service slots (the paper's FIFO-of-3)"),
    _flag("--queue-depth", type=int, default=4,
          help="bounded admission queue length before QUEUE_FULL sheds"),
    _flag("--service-time", type=float,
          help="est. seconds per question (loadgen: calibrated unless given)"),
    _flag("--deadline", type=float, default=None,
          help="admission deadline seconds, also the SLO's p99 target "
          "(default: 6x service time)"),
    _flag("--drain-timeout", type=float, default=60.0,
          help="seconds in-flight questions get to finish at shutdown"),
    _flag("--sample", type=float, default=0.0,
          help="head-sampling rate in [0, 1] for stitched worker traces"),
    _flag("--trace-seed", type=int, default=0, help="head-sampler seed"),
    _TELEMETRY,
]


class _Command(t.NamedTuple):
    name: str
    help: str
    handler: t.Callable[[argparse.Namespace], None]
    flags: list[_Flag]
    defaults: dict[str, t.Any] = {}
    aliases: list[str] = []


_COMMANDS = [
    _Command("ask", "answer a question over the demo corpus", _cmd_ask,
             [_flag("question", help="natural-language question text")]),
    _Command("simulate", "run a simulated cluster workload", _cmd_simulate, [
        _NODES,
        _flag("--strategy", choices=["DNS", "INTER", "DQA"], default="DQA"),
        _QUESTIONS,
        _flag("--stagger", type=float, default=2.0),
        _SEED,
    ], {"nodes": 8}),
    _Command("chaos", "randomized fault-injection campaign", _cmd_chaos, [
        *_CLUSTER,
        _QUESTIONS,
        _flag("--fault-rates", type=float, nargs="*", default=[0.0, 1 / 400, 1 / 150],
              help="expected crashes per node per second (sweep values)"),
        _flag("--retry-budget", type=int, default=3,
              help="front-end re-admissions per lost-host question"),
        _flag("--mean-downtime", type=float, default=30.0),
        _flag("--min-live", type=int, default=2,
              help="schedules never drop the live node count below this"),
        _JOBS,
    ], {"nodes": 6, "questions": 12}),
    _Command("model", "analytical capacity planning", _cmd_model, [
        _flag("--net", default="100 Mbps", help='e.g. "1 Gbps"'),
        _flag("--disk", default="250 Mbps", help='e.g. "250 Mbps"'),
    ]),
    _Command("observe", "traced workload with span export and overhead attribution",
             _cmd_observe, [
        *_CLUSTER,
        _flag("--questions-per-node", type=int, default=2,
              help="questions per node per strategy run"),
        _flag("--dispatch-cost", type=float, default=1e-5,
              help="Eq 15 per-node dispatch scan CPU seconds (0 = paper's instant)"),
        _flag("--output-dir", default="observe_out",
              help="directory for trace_*.json, spans_*.jsonl, attribution.json"),
    ], {"nodes": 16}),
    _Command("experiments", "regenerate the paper's tables and figures",
             _cmd_experiments,
             [_flag("names", nargs="*", help="subset (default: all)"), _JOBS],
             aliases=["exp"]),
    _Command("serve", "long-lived admission-controlled server (questions on stdin)",
             _cmd_serve, _SERVER, {"service_time": 0.05}),
    _Command("loadgen", "overload protocol: Zipf stream at offered loads around "
             "saturation", _cmd_loadgen, [
        _QUESTIONS,
        _flag("--unique", type=int, default=60, help="distinct questions"),
        _flag("--zipf", type=float, default=1.1, help="Zipf exponent"),
        _SEED,
        *_SERVER,
        _flag("--load-factors", type=float, nargs="+", default=[0.5, 1.0, 2.0],
              help="offered load as multiples of measured saturation"),
        _flag("--rate", type=float, default=None,
              help="explicit offered q/s (skips calibration; needs --service-time)"),
        _flag("--batch", type=int, default=1,
              help="micro-batch size: while every worker is busy, accepted questions "
              "go B per worker request (1 = unbatched; decisions are unchanged)"),
        _flag("--output", default=None, help="write the JSON summary here"),
        _flag("--check-overload", action="store_true",
              help="fail unless overload sheds, p99 stays bounded and nothing is lost"),
        _flag("--trace-out", default=None,
              help="write the at-saturation run's stitched spans as a Chrome trace"),
    ], {"questions": 200, "seed": 7}),
    _Command("top", "text dashboard over a telemetry.jsonl file (live or finished)",
             _cmd_top, [
        _TELEMETRY,
        _flag("--follow", action="store_true",
              help="keep re-reading the file every --interval seconds"),
        _flag("--interval", type=float, default=2.0, help="--follow period"),
    ], {"telemetry": "telemetry.jsonl"}),
]


def build_parser() -> argparse.ArgumentParser:
    """The parser ``_COMMANDS`` describes: one subparser per row."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Q/A system reproduction (IPPS 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, aliases=cmd.aliases, help=cmd.help)
        for names, kwargs in cmd.flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=cmd.handler, **cmd.defaults)
    return parser


def main(argv: t.Sequence[str] | None = None) -> None:
    """Parse arguments and dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    args.func(args)

