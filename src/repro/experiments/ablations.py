"""Ablation studies beyond the paper's headline tables.

The paper motivates several design choices without isolating them; these
ablations quantify each one on the simulated cluster:

* **Dispatcher ablation** — DQA with the PR dispatcher disabled, with the
  AP dispatcher disabled, and with partitioning disabled, against full
  DQA and the INTER/DNS baselines (which scheduling point buys what).
* **Concurrency sweep** — per-node admitted-question limit 1..8,
  reproducing Section 4.2's observation that 2-3 simultaneous questions
  beat sequential execution while >4 collapses under memory pressure.
* **Migration-threshold sweep** — the question dispatcher's
  useless-migration guard from 0 (migrate on any difference) upward.
* **Under-load margin sweep** — Section 4.2's response-time versus
  throughput trade-off for the partitioning conditions.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from ..core import (
    DistributedQASystem,
    Strategy,
    SystemConfig,
    TaskPolicy,
    WorkloadReport,
)
from ..core.node import NodeConfig
from ..workload import run_high_load, run_one_at_a_time
from .context import complex_profiles
from .parallel import run_cells
from .report import TextTable

__all__ = [
    "run_dispatcher_ablation",
    "format_dispatcher_ablation",
    "run_concurrency_sweep",
    "format_concurrency_sweep",
    "run_threshold_sweep",
    "format_threshold_sweep",
    "run_margin_sweep",
    "format_margin_sweep",
]


@dataclass(frozen=True, slots=True)
class AblationRow:
    label: str
    throughput_qpm: float
    mean_response_s: float


def _row(label: str, reports: t.Sequence[WorkloadReport]) -> AblationRow:
    """Seed-averaged throughput and response of one variant's runs."""
    return AblationRow(
        label,
        float(np.mean([r.throughput_qpm for r in reports])),
        float(np.mean([r.mean_response_s for r in reports])),
    )


def _high_load_cell(spec: tuple[str, SystemConfig, tuple[int, ...]]) -> AblationRow:
    """Pool worker: one labelled high-load variant -> its ablation row."""
    label, config, seeds = spec
    return _row(
        label, [run_high_load(DistributedQASystem(config), seed) for seed in seeds]
    )


def run_dispatcher_ablation(
    n_nodes: int = 8,
    seeds: t.Sequence[int] = (11, 23, 37),
    jobs: int | str | None = None,
) -> list[AblationRow]:
    """Measure each scheduling point's contribution at high load."""
    variants: list[tuple[str, SystemConfig]] = [
        ("DNS (no dispatchers)", SystemConfig(n_nodes=n_nodes, strategy=Strategy.DNS)),
        ("INTER (QA dispatcher only)",
         SystemConfig(n_nodes=n_nodes, strategy=Strategy.INTER)),
        ("DQA minus PR dispatcher",
         SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA,
                      policy=TaskPolicy(enable_pr_dispatch=False))),
        ("DQA minus AP dispatcher",
         SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA,
                      policy=TaskPolicy(enable_ap_dispatch=False))),
        ("DQA minus partitioning",
         SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA,
                      policy=TaskPolicy(enable_partitioning=False))),
        ("DQA (full)", SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA)),
    ]
    specs = [(label, config, tuple(seeds)) for label, config in variants]
    return run_cells(_high_load_cell, specs, jobs=jobs)


def format_dispatcher_ablation(rows: t.Sequence[AblationRow]) -> str:
    """Render the dispatcher-ablation rows as a text table."""
    table = TextTable(
        "Ablation: scheduling points at high load (8 nodes)",
        ["Variant", "Throughput (q/min)", "Mean response (s)"],
    )
    for r in rows:
        table.add_row(r.label, r.throughput_qpm, r.mean_response_s)
    return table.render()


def run_concurrency_sweep(
    caps: t.Sequence[int] = (1, 2, 3, 4, 5, 6, 8),
    n_nodes: int = 4,
    seeds: t.Sequence[int] = (11, 23),
    jobs: int | str | None = None,
) -> list[AblationRow]:
    """Section 4.2's simultaneous-question experiment, repeated in full."""
    specs = [
        (
            f"{cap} simultaneous",
            SystemConfig(
                n_nodes=n_nodes,
                strategy=Strategy.DNS,
                node=NodeConfig(max_concurrent_questions=cap),
            ),
            tuple(seeds),
        )
        for cap in caps
    ]
    return run_cells(_high_load_cell, specs, jobs=jobs)


def format_concurrency_sweep(rows: t.Sequence[AblationRow]) -> str:
    """Render the concurrency-sweep rows as a text table."""
    table = TextTable(
        "Ablation: per-node simultaneous questions (throughput peak at 2-4,"
        " memory thrash beyond)",
        ["Concurrency", "Throughput (q/min)", "Mean response (s)"],
    )
    for r in rows:
        table.add_row(r.label, r.throughput_qpm, r.mean_response_s)
    return table.render()


def _threshold_cell(spec: tuple[float, int, tuple[int, ...]]) -> AblationRow:
    """Pool worker: one migration-threshold setting -> its ablation row."""
    th, n_nodes, seeds = spec
    config = SystemConfig(n_nodes=n_nodes, strategy=Strategy.INTER)
    reports = []
    for seed in seeds:
        system = DistributedQASystem(config)
        system.question_dispatcher.migration_threshold = th
        reports.append(run_high_load(system, seed))
    return _row(f"threshold {th:.3f}", reports)


def run_threshold_sweep(
    thresholds: t.Sequence[float] = (0.0, 0.334, 0.668, 1.336, 2.672),
    n_nodes: int = 8,
    seeds: t.Sequence[int] = (11, 23),
    jobs: int | str | None = None,
) -> list[AblationRow]:
    """Vary the question dispatcher's useless-migration guard."""
    specs = [(th, n_nodes, tuple(seeds)) for th in thresholds]
    return run_cells(_threshold_cell, specs, jobs=jobs)


def format_threshold_sweep(rows: t.Sequence[AblationRow]) -> str:
    """Render the threshold-sweep rows as a text table."""
    table = TextTable(
        "Ablation: question-migration threshold (INTER, 8 nodes)",
        ["Threshold (load units)", "Throughput (q/min)", "Mean response (s)"],
    )
    for r in rows:
        table.add_row(r.label, r.throughput_qpm, r.mean_response_s)
    return table.render()


def run_margin_sweep(
    margins: t.Sequence[float] = (0.5, 0.8, 1.1, 1.5, 2.0, 3.0),
    n_nodes: int = 8,
    n_questions: int = 10,
    seed: int = 3,
    jobs: int | str | None = None,
) -> list[tuple[float, float, float]]:
    """Under-load margin vs low-load response time and high-load throughput.

    Returns (margin, low-load mean response, high-load throughput) rows —
    the Section 4.2 trade-off: larger margins partition more eagerly,
    cutting individual latencies but risking throughput at load.
    """
    profiles = complex_profiles(n_questions, seed=seed)
    specs = [(margin, n_nodes, tuple(profiles)) for margin in margins]
    return run_cells(_margin_cell, specs, jobs=jobs)


def _margin_cell(
    spec: tuple[float, int, tuple[t.Any, ...]]
) -> tuple[float, float, float]:
    """Pool worker: one under-load margin -> (margin, response, throughput)."""
    margin, n_nodes, profiles = spec
    config = SystemConfig(
        n_nodes=n_nodes,
        strategy=Strategy.DQA,
        policy=TaskPolicy(pr_underload_margin=margin, ap_underload_margin=margin),
    )
    low = run_one_at_a_time(config, profiles)
    high = run_high_load(DistributedQASystem(config), seed=11)
    return (
        margin,
        float(np.mean([r.response_time for r in low])),
        high.throughput_qpm,
    )


def format_margin_sweep(rows: t.Sequence[tuple[float, float, float]]) -> str:
    """Render the margin-sweep rows as a text table."""
    table = TextTable(
        "Ablation: under-load margin trade-off (8 nodes)",
        ["Margin", "Low-load response (s)", "High-load throughput (q/min)"],
    )
    for margin, resp, thr in rows:
        table.add_row(margin, resp, thr)
    return table.render()
