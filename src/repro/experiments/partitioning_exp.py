"""Table 11 and Figure 10 — comparing the partitioning strategies.

Table 11: AP-module speedup under SEND / ISEND / RECV on 4/8/12-node
clusters (paper: SEND clearly worst, RECV best, ISEND close behind).

Figure 10: AP speedup of RECV against chunk size (5..100 paragraphs) at 4
and 8 processors — an interior optimum (the paper finds ~40): small
chunks pay per-chunk answer-extraction and connection overhead, big
chunks revive the uneven-granularity problem.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from ..core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from ..qa.profiles import QuestionProfile
from .context import complex_profiles
from .parallel import run_cells
from .report import TextTable, format_series

__all__ = [
    "run_table11",
    "format_table11",
    "run_fig10",
    "format_fig10",
]

PAPER_TABLE11 = {
    (4, "SEND"): 2.71, (4, "ISEND"): 3.61, (4, "RECV"): 3.73,
    (8, "SEND"): 4.78, (8, "ISEND"): 6.25, (8, "RECV"): 6.58,
    (12, "SEND"): 7.17, (12, "ISEND"): 9.22, (12, "RECV"): 9.87,
}


def _mean_ap_time(
    n_nodes: int,
    profiles: t.Sequence[QuestionProfile],
    ap_strategy: PartitioningStrategy,
    chunk: int = 40,
) -> float:
    """Mean AP critical-path time, one question at a time."""
    times = []
    for prof in profiles:
        policy = TaskPolicy(
            ap_strategy=ap_strategy, ap_chunk_paragraphs=chunk
        )
        system = DistributedQASystem(
            SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA, policy=policy)
        )
        rep = system.run_workload([prof])
        times.append(rep.results[0].module_times["AP"])
    return float(np.mean(times))


@dataclass(frozen=True, slots=True)
class Table11Row:
    n_nodes: int
    send: float
    isend: float
    recv: float


def _ap_time_cell(
    spec: tuple[int, str, tuple[QuestionProfile, ...], int]
) -> float:
    """Pool worker: mean AP time for one (nodes, strategy, chunk) cell."""
    n_nodes, strategy_name, profiles, chunk = spec
    return _mean_ap_time(
        n_nodes, profiles, PartitioningStrategy[strategy_name], chunk
    )


def run_table11(
    node_counts: t.Sequence[int] = (4, 8, 12),
    n_questions: int = 15,
    seed: int = 3,
    jobs: int | str | None = None,
) -> list[Table11Row]:
    """Measure SEND/ISEND/RECV answer-processing speedups (Table 11).

    The 1-node baseline is a single deterministic measurement, so it is
    computed once and shared by every row (the old per-row recompute
    produced the identical number three times); the (N, strategy) grid
    then runs as independent cells, in parallel when ``jobs`` > 1.
    """
    profiles = tuple(complex_profiles(n_questions, seed=seed))
    strategy_names = ("SEND", "ISEND", "RECV")
    specs = [(1, "RECV", profiles, 40)] + [
        (n, s, profiles, 40) for n in node_counts for s in strategy_names
    ]
    times = run_cells(_ap_time_cell, specs, jobs=jobs)
    base = times[0]
    grid = iter(times[1:])
    rows = []
    for n in node_counts:
        sp = {s: base / next(grid) for s in strategy_names}
        rows.append(
            Table11Row(n_nodes=n, send=sp["SEND"], isend=sp["ISEND"], recv=sp["RECV"])
        )
    return rows


def format_table11(rows: t.Sequence[Table11Row]) -> str:
    """Render Table 11 with the paper's reference column."""
    table = TextTable(
        "Table 11: answer-processing speedup per partitioning strategy",
        ["Procs", "SEND", "ISEND", "RECV", "paper SEND/ISEND/RECV"],
    )
    for r in rows:
        paper = "/".join(
            f"{PAPER_TABLE11[(r.n_nodes, s)]:.2f}"
            for s in ("SEND", "ISEND", "RECV")
        )
        table.add_row(r.n_nodes, r.send, r.isend, r.recv, paper)
    return table.render()


def run_fig10(
    chunk_sizes: t.Sequence[int] = (5, 10, 20, 40, 60, 80, 100),
    node_counts: t.Sequence[int] = (4, 8),
    n_questions: int = 12,
    seed: int = 3,
    jobs: int | str | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """RECV AP speedup vs chunk size (Figure 10's two curves)."""
    profiles = tuple(complex_profiles(n_questions, seed=seed))
    specs = [(1, "RECV", profiles, 40)] + [
        (n, "RECV", profiles, chunk)
        for n in node_counts
        for chunk in chunk_sizes
    ]
    times = run_cells(_ap_time_cell, specs, jobs=jobs)
    base = times[0]
    grid = iter(times[1:])
    series: dict[str, list[tuple[float, float]]] = {}
    for n in node_counts:
        series[f"{n} processors"] = [
            (float(chunk), base / next(grid)) for chunk in chunk_sizes
        ]
    return series


def format_fig10(series: dict[str, list[tuple[float, float]]]) -> str:
    """Render the Figure 10 chunk-size series as aligned columns."""
    return format_series(
        "Figure 10: AP speedup for RECV vs paragraph chunk size",
        series,
        x_label="chunk",
        y_label="speedup",
    )
