"""Simulated system speedup against Eq 23: the two weak-scaling checks.

The paper's Figure 8 is Eq 23 alone; both sections here measure the same
ratio on the simulator instead, running ``q`` questions per processor
(the regime Eq 23 assumes) through the Section 6.1 recipe,
:func:`~repro.workload.run_high_load`:

* ``ext-scale`` (:func:`run_scale`) — Section 5 stops at the
  12-processor testbed and *extrapolates* Eq 9-23 to 1000 processors
  (Figures 8-9).  With sharded load monitoring
  (``SystemConfig.monitor_shards``, ~sqrt(N) shards) the simulator
  executes those sizes directly, under each AP partitioning strategy
  (SEND / ISEND / RECV; PR always uses RECV, as in the paper).  The
  section sweeps 16 -> 128 nodes;
  ``run_scale(node_counts=DEFAULT_NODE_COUNTS)`` climbs to the paper's
  1000 (minutes of host time per strategy).
* ``ext-model-validation`` (:func:`run_inter_validation`) — the testbed's
  own range, 1 -> 16 nodes on the broadcast monitor plane, averaged over
  two seeds.

How fast the simulator gets through a cell is the benchmark's business
(``bench/run.py``, ``sim_scale128``), not this experiment's.
"""

from __future__ import annotations

import typing as t
from dataclasses import asdict, dataclass

import numpy as np

from ..core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from ..core.monitor import auto_shard_count
from ..model import ModelParameters, system_speedup
from ..workload import run_high_load
from .parallel import run_cells
from .report import TextTable

__all__ = [
    "ScaleCell",
    "SpeedupPoint",
    "run_scale",
    "format_scale",
    "run_inter_validation",
    "format_inter_validation",
    "DEFAULT_NODE_COUNTS",
]

#: The full weak-scaling ladder: every doubling from 16, plus the paper's 1000.
DEFAULT_NODE_COUNTS = (16, 32, 64, 128, 256, 512, 1000)


@dataclass(frozen=True, slots=True)
class ScaleCell:
    """One simulated (N, strategy) cell."""

    n_nodes: int
    ap_strategy: str
    monitor_shards: int
    n_questions: int
    events: int
    throughput_qpm: float
    mean_response_s: float


def _scale_cell(spec: tuple[int, str, int, int]) -> ScaleCell:
    """Pool worker: simulate one cell."""
    n_nodes, ap_strategy, seed, qpn = spec
    n_q = qpn * n_nodes
    shards = auto_shard_count(n_nodes)
    system = DistributedQASystem(
        SystemConfig(
            n_nodes=n_nodes,
            strategy=Strategy.DQA,
            seed=seed,
            monitor_shards=shards,
            policy=TaskPolicy(
                ap_strategy=PartitioningStrategy[ap_strategy]
            ),
            collect_metrics=False,
        )
    )
    report = run_high_load(system, seed, n_questions=n_q)
    return ScaleCell(
        n_nodes=n_nodes,
        ap_strategy=ap_strategy,
        monitor_shards=shards,
        n_questions=n_q,
        events=next(system.env._seq),
        throughput_qpm=report.throughput_qpm,
        mean_response_s=report.mean_response_s,
    )


def run_scale(
    node_counts: t.Sequence[int] = (16, 32, 64, 128),
    strategies: t.Sequence[str] = ("SEND", "ISEND", "RECV"),
    questions_per_node: int = 4,
    seed: int = 11,
    params: ModelParameters | None = None,
    jobs: int | str | None = None,
) -> dict[str, t.Any]:
    """Run the sweep; N=1 anchors each strategy's speedup ratio."""
    params = params or ModelParameters()
    node_counts = tuple(sorted(set(node_counts)))
    specs = [
        (n, strategy, seed, questions_per_node)
        for strategy in strategies
        for n in (1,) + node_counts
    ]
    cells = run_cells(_scale_cell, specs, jobs=jobs)
    by_key = {(c.n_nodes, c.ap_strategy): c for c in cells}

    crosscheck = []
    for strategy in strategies:
        base = by_key[(1, strategy)]
        for n in node_counts:
            measured = (
                by_key[(n, strategy)].throughput_qpm / base.throughput_qpm
                if base.throughput_qpm
                else 0.0
            )
            analytical = system_speedup(params, n)
            crosscheck.append(
                {
                    "n_nodes": n,
                    "ap_strategy": strategy,
                    "measured_speedup": measured,
                    "analytical_speedup": analytical,
                    "rel_err": abs(measured - analytical) / analytical,
                }
            )

    return {
        "seed": seed,
        "questions_per_node": questions_per_node,
        "node_counts": list(node_counts),
        "strategies": list(strategies),
        "cells": [asdict(c) for c in cells],
        "crosscheck": crosscheck,
    }


def format_scale(summary: dict[str, t.Any]) -> str:
    """Human-readable report of a scale sweep."""
    table = TextTable(
        "Eq 23 cross-check: measured vs analytical system speedup "
        f"(q/node={summary['questions_per_node']}, seed={summary['seed']})",
        ["N", "Strategy", "Measured", "Eq 23", "rel err"],
    )
    for row in summary["crosscheck"]:
        table.add_row(
            row["n_nodes"],
            row["ap_strategy"],
            row["measured_speedup"],
            row["analytical_speedup"],
            f"{row['rel_err'] * 100:.1f} %",
        )
    return table.render()


# -- ext-model-validation: the same ratio on the 1-16 node testbed ------------------


@dataclass(frozen=True, slots=True)
class SpeedupPoint:
    n_nodes: int
    measured_speedup: float
    analytical_speedup: float


def run_inter_validation(
    node_counts: t.Sequence[int] = (1, 2, 4, 8, 12, 16),
    questions_per_node: int = 6,
    seeds: t.Sequence[int] = (11, 23),
    params: ModelParameters | None = None,
) -> list[SpeedupPoint]:
    """Measured vs Eq-23 system speedup over cluster sizes.

    Speedup is throughput per unit of work relative to the 1-node system
    on a proportionally scaled workload (weak scaling, as Eq 23 assumes:
    q questions per processor).
    """
    params = params or ModelParameters()
    throughput: dict[int, float] = {}
    for n in node_counts:
        config = SystemConfig(n_nodes=n, strategy=Strategy.DQA)
        acc = [
            run_high_load(
                DistributedQASystem(config), seed, n_questions=questions_per_node * n
            ).throughput_qpm
            for seed in seeds
        ]
        throughput[n] = float(np.mean(acc))
    base = throughput[node_counts[0]] / node_counts[0]
    return [
        SpeedupPoint(
            n_nodes=n,
            measured_speedup=throughput[n] / base,
            analytical_speedup=system_speedup(params, n),
        )
        for n in node_counts
    ]


def format_inter_validation(points: t.Sequence[SpeedupPoint]) -> str:
    """Render the Eq-23-vs-simulation speedup comparison."""
    table = TextTable(
        "Extension: inter-question model (Eq 23) vs simulation",
        ["Procs", "Measured speedup", "Analytical speedup", "ratio"],
    )
    for p in points:
        ratio = p.measured_speedup / p.analytical_speedup
        table.add_row(
            p.n_nodes, p.measured_speedup, p.analytical_speedup, f"{ratio:.2f}"
        )
    return table.render()
