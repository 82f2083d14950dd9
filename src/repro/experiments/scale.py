"""Scale-out sweep: run the paper's 1000-node extrapolation for real.

Section 5 stops at the 12-processor testbed and *extrapolates* Eq 9-23
to 1000 processors (Figures 8-9).  With sharded load monitoring
(``SystemConfig.monitor_shards``, ~sqrt(N) shards) the simulator executes
those configurations directly: a weak-scaling sweep — ``q`` questions per
processor, the regime Eq 23 assumes — under each AP partitioning strategy
(SEND / ISEND / RECV; PR always uses RECV, as in the paper), cross-checking
measured system speedup against Eq 23 at every size.

The ``ext-scale`` section of ``repro experiments`` sweeps 16 -> 128 nodes;
``run_scale(node_counts=DEFAULT_NODE_COUNTS)`` climbs to the paper's 1000
(minutes of host time per strategy).  How fast the simulator gets through
a cell is the benchmark's business (``bench/run.py``, ``sim_scale128``),
not this experiment's.
"""

from __future__ import annotations

import typing as t
from dataclasses import asdict, dataclass

from ..core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from ..core.monitor import auto_shard_count
from ..model import ModelParameters, system_speedup
from ..workload import staggered_arrivals, trec_mix_profiles
from .parallel import run_cells
from .report import TextTable

__all__ = [
    "ScaleCell",
    "run_scale",
    "format_scale",
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
    report = system.run_workload(
        trec_mix_profiles(n_q, seed=seed), staggered_arrivals(n_q, 2.0, seed=seed)
    )
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
