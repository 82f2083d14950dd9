"""The ``repro observe`` workload runner.

Runs a traced DQA workload on a simulated cluster once per AP
partitioning strategy (SEND / ISEND / RECV, with RECV for PR as the
paper prescribes), then for each run:

* exports the span stream as ``telemetry/v3`` JSONL and Chrome
  ``trace_event`` JSON (open the latter in chrome://tracing or
  https://ui.perfetto.dev);
* validates both files as written, through the telemetry file
  validator and the trace_event checker;
* produces the overhead-attribution report and checks its sum
  invariant (categories total the traced wall time).

The dispatcher scan cost is modelled (``dispatch_scan_cpu_s``) so the
measured dispatch overhead is a real, non-zero quantity comparable with
Eq 15 — the paper-faithful simulation default keeps it at zero.

``run_observe`` returns a JSON-friendly summary (also written to
``attribution.json`` in the output directory) and never prints;
formatting lives in :func:`format_observe` for the CLI.
"""

from __future__ import annotations

import json
import pathlib
import typing as t
from dataclasses import dataclass

from .attribution import AttributionReport, attribute_workload, format_attribution
from .exporters import validate_chrome_trace, write_chrome_trace
from .telemetry import TelemetryWriter, validate_telemetry_file

__all__ = ["ObserveConfig", "run_observe", "format_observe"]

#: Tolerance for the attribution sum invariant (seconds).
SUM_TOLERANCE_S = 1e-6


@dataclass(frozen=True, slots=True)
class ObserveConfig:
    """Knobs for one ``repro observe`` invocation."""

    n_nodes: int = 16
    #: Questions per node per strategy run (the paper's overload protocol
    #: uses 8; 2 keeps the smoke run quick while still queueing).
    questions_per_node: int = 2
    #: AP partitioning strategies to run (PR always uses RECV).
    strategies: tuple[str, ...] = ("SEND", "ISEND", "RECV")
    seed: int = 11
    #: Eq 15 scan cost per load-table entry; 0 restores the
    #: paper-faithful instantaneous dispatch.
    dispatch_scan_cpu_s: float = 1e-5
    output_dir: str = "observe_out"
    #: Span-store bound per run (None = unbounded).
    trace_max_events: int | None = 500_000


def _run_one(
    config: ObserveConfig, ap_strategy: str, out: pathlib.Path
) -> dict[str, t.Any]:
    """Run one traced workload; export, validate, attribute."""
    from ..core import (
        DistributedQASystem,
        PartitioningStrategy,
        Strategy,
        SystemConfig,
        TaskPolicy,
    )
    from ..workload import run_high_load, summarize_latencies

    n_questions = config.questions_per_node * config.n_nodes
    policy = TaskPolicy(
        pr_strategy=PartitioningStrategy.RECV,
        ap_strategy=PartitioningStrategy[ap_strategy],
        dispatch_scan_cpu_s=config.dispatch_scan_cpu_s,
    )
    sys_config = SystemConfig(
        n_nodes=config.n_nodes,
        strategy=Strategy.DQA,
        policy=policy,
        trace=True,
        trace_max_events=config.trace_max_events,
        seed=config.seed,
    )
    system = DistributedQASystem(sys_config)
    report = run_high_load(system, config.seed, n_questions=n_questions)

    jsonl_path = out / f"spans_{ap_strategy}.jsonl"
    header = {
        "n_nodes": config.n_nodes,
        "n_questions": n_questions,
        "ap_strategy": ap_strategy,
        "seed": config.seed,
    }
    with TelemetryWriter(jsonl_path, header=header) as writer:
        writer.write_spans(system.spans.spans)
        writer.write_metrics(system.metrics)
    trace_path = write_chrome_trace(
        system.spans,
        out / f"trace_{ap_strategy}.json",
        label=f"repro observe ({ap_strategy})",
    )

    # Validate what was actually written, not the in-memory objects.
    n_jsonl = validate_telemetry_file(jsonl_path)
    n_trace = validate_chrome_trace(json.loads(trace_path.read_text()))

    attribution = attribute_workload(
        system.spans, system.metrics, report, sys_config
    )
    sum_error = attribution.max_sum_error()
    return {
        "ap_strategy": ap_strategy,
        "n_questions": n_questions,
        "makespan_s": report.makespan_s,
        "throughput_qpm": report.throughput_qpm,
        "latency": summarize_latencies(report).to_dict(),
        "migrations": {
            "qa": report.migrations_qa,
            "pr": report.migrations_pr,
            "ap": report.migrations_ap,
        },
        "files": {
            "jsonl": str(jsonl_path),
            "chrome_trace": str(trace_path),
        },
        "checks": {
            "jsonl_records": n_jsonl,
            "trace_events": n_trace,
            "attribution_sum_error_s": sum_error,
            "ok": sum_error <= SUM_TOLERANCE_S,
        },
        "attribution": attribution.to_dict(),
        "_report": attribution,  # stripped before JSON
    }


def run_observe(config: ObserveConfig | None = None) -> dict[str, t.Any]:
    """Run the observe workload for every configured strategy.

    Writes per-strategy JSONL + Chrome-trace files plus a combined
    ``attribution.json`` into ``config.output_dir`` and returns the
    summary dict (strategy label -> per-run summary, plus ``ok``).
    """
    config = config or ObserveConfig()
    out = pathlib.Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = {
        strategy: _run_one(config, strategy, out)
        for strategy in config.strategies
    }
    summary: dict[str, t.Any] = {
        "schema": "observe/v1",
        "n_nodes": config.n_nodes,
        "seed": config.seed,
        "dispatch_scan_cpu_s": config.dispatch_scan_cpu_s,
        "runs": {
            label: {k: v for k, v in run.items() if not k.startswith("_")}
            for label, run in runs.items()
        },
        "ok": all(run["checks"]["ok"] for run in runs.values()),
    }
    (out / "attribution.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    # Re-attach the live reports for the formatter (not serialized).
    summary["_reports"] = {
        label: t.cast(AttributionReport, run["_report"])
        for label, run in runs.items()
    }
    return summary


def format_observe(summary: dict[str, t.Any]) -> str:
    """Human-readable rendering of a :func:`run_observe` summary."""
    lines = [
        f"repro observe: {summary['n_nodes']} nodes, seed {summary['seed']}"
        f" (RECV for PR; AP strategy varies)",
    ]
    reports: dict[str, AttributionReport] = summary.get("_reports", {})
    for label, run in summary["runs"].items():
        checks = run["checks"]
        lines.append("")
        lines.append(
            f"=== AP strategy {label}: {run['n_questions']} questions, "
            f"makespan {run['makespan_s']:.1f} s, "
            f"{run['throughput_qpm']:.2f} q/min ==="
        )
        report = reports.get(label)
        if report is not None:
            lines.append(format_attribution(report))
        lines.append(
            f"wrote {run['files']['chrome_trace']} "
            f"({checks['trace_events']} events) and "
            f"{run['files']['jsonl']} ({checks['jsonl_records']} records); "
            f"attribution sum error {checks['attribution_sum_error_s']:.2e} s"
            f" [{'ok' if checks['ok'] else 'FAILED'}]"
        )
    lines.append("")
    lines.append(
        "open the trace files in chrome://tracing or https://ui.perfetto.dev"
    )
    return "\n".join(lines)
