"""Tables 8, 9 and 10 — intra-question parallelism at low load.

Protocol (Section 6.2): complex questions executed one at a time on
1/4/8/12-node clusters with RECV partitioning for both PR and AP; measure

* Table 8 — per-module critical-path times and response times,
* Table 9 — the distribution-overhead breakdown per question,
* Table 10 — analytical (Eq 36) versus measured question speedup.

Paper shapes: PR time flat from 8 to 12 processors (only 8
sub-collections); total overhead < 3 % of response time; measured speedup
below analytical with the gap growing with N.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from ..core import Strategy, SystemConfig
from ..model import ModelParameters, question_speedup
from ..qa.profiles import QuestionProfile
from ..workload import run_one_at_a_time
from .context import complex_profiles
from .parallel import run_cells
from .report import TextTable

__all__ = [
    "IntraRow",
    "run_intra_question",
    "format_table8",
    "format_table9",
    "format_table10",
]

PAPER_TABLE8 = {
    1: {"QP": 0.81, "PR": 38.01, "PS": 2.06, "PO": 0.02, "AP": 117.55, "resp": 158.47},
    4: {"QP": 0.81, "PR": 9.78, "PS": 0.54, "PO": 0.02, "AP": 31.51, "resp": 43.13},
    8: {"QP": 0.81, "PR": 7.34, "PS": 0.41, "PO": 0.02, "AP": 17.86, "resp": 27.07},
    12: {"QP": 0.81, "PR": 7.34, "PS": 0.41, "PO": 0.02, "AP": 11.90, "resp": 21.17},
}

PAPER_TABLE9 = {
    4: {"keyword_send": 0.04, "paragraph_recv": 0.19, "paragraph_send": 0.15,
        "answer_recv": 0.05, "answer_sort": 0.01, "total": 0.44},
    8: {"keyword_send": 0.08, "paragraph_recv": 0.24, "paragraph_send": 0.19,
        "answer_recv": 0.09, "answer_sort": 0.01, "total": 0.61},
    12: {"keyword_send": 0.08, "paragraph_recv": 0.24, "paragraph_send": 0.22,
         "answer_recv": 0.12, "answer_sort": 0.01, "total": 0.67},
}

PAPER_TABLE10 = {4: (3.84, 3.67), 8: (7.34, 5.85), 12: (10.60, 7.48)}


@dataclass(slots=True)
class IntraRow:
    """Aggregated low-load measurements for one cluster size."""

    n_nodes: int
    module_times: dict[str, float]
    response_s: float
    overhead: dict[str, float]
    measured_speedup: float = 0.0
    analytical_speedup: float = 0.0


def _intra_cell(
    spec: tuple[int, tuple[QuestionProfile, ...]]
) -> IntraRow:
    """Pool worker: one cluster size's low-load measurements.

    The speedup fields stay 0 here — they relate rows to each other
    (measured against the first row's response), so the sweep fills them
    in after the ordered merge.
    """
    n_nodes, profiles = spec
    results = run_one_at_a_time(
        SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA), profiles
    )
    return IntraRow(
        n_nodes=n_nodes,
        module_times={
            k: float(np.mean([r.module_times[k] for r in results]))
            for k in ("QP", "PR", "PS", "PO", "AP")
        },
        response_s=float(np.mean([r.response_time for r in results])),
        overhead={
            k: float(np.mean([r.overhead[k] for r in results]))
            for k in results[0].overhead
        },
    )


def run_intra_question(
    node_counts: t.Sequence[int] = (1, 4, 8, 12),
    n_questions: int = 20,
    seed: int = 3,
    profiles: t.Sequence[QuestionProfile] | None = None,
    params: ModelParameters | None = None,
    jobs: int | str | None = None,
) -> list[IntraRow]:
    """Execute complex questions one at a time per cluster size.

    Each cluster size is an independent cell; the cross-row speedup
    ratios are computed after the (ordered) merge, so parallel runs
    produce the same rows as serial ones.
    """
    profiles = tuple(profiles or complex_profiles(n_questions, seed=seed))
    params = params or ModelParameters()
    specs = [(n_nodes, profiles) for n_nodes in node_counts]
    rows = run_cells(_intra_cell, specs, jobs=jobs)
    base_response: float | None = None
    for row in rows:
        if base_response is None:
            base_response = row.response_s
        row.measured_speedup = base_response / row.response_s
        row.analytical_speedup = (
            1.0 if row.n_nodes == 1 else question_speedup(params, row.n_nodes)
        )
    return rows


def format_table8(rows: t.Sequence[IntraRow]) -> str:
    """Render Table 8 (module times) with the paper's response column."""
    table = TextTable(
        "Table 8: observed module times and question response times (s)",
        ["Procs", "QP", "PR", "PS", "PO", "AP", "Response", "paper resp"],
    )
    for r in rows:
        paper = PAPER_TABLE8.get(r.n_nodes, {})
        table.add_row(
            r.n_nodes,
            r.module_times["QP"],
            r.module_times["PR"],
            r.module_times["PS"],
            r.module_times["PO"],
            r.module_times["AP"],
            r.response_s,
            paper.get("resp", "-"),
        )
    return table.render()


def format_table9(rows: t.Sequence[IntraRow]) -> str:
    """Render Table 9 (overhead breakdown) with the paper's totals."""
    table = TextTable(
        "Table 9: measured distribution overhead per question (s)",
        ["Procs", "Kw send", "Para recv", "Para send", "Ans recv",
         "Ans sort", "Total", "paper total"],
    )
    for r in rows:
        if r.n_nodes == 1:
            continue
        total = sum(r.overhead.values())
        paper = PAPER_TABLE9.get(r.n_nodes, {})
        table.add_row(
            r.n_nodes,
            r.overhead.get("keyword_send", 0.0),
            r.overhead.get("paragraph_recv", 0.0),
            r.overhead.get("paragraph_send", 0.0),
            r.overhead.get("answer_recv", 0.0),
            r.overhead.get("answer_sort", 0.0),
            total,
            paper.get("total", "-"),
        )
    return table.render()


def format_table10(rows: t.Sequence[IntraRow]) -> str:
    """Render Table 10 (analytical vs measured speedups)."""
    table = TextTable(
        "Table 10: analytical versus measured question speedup",
        ["Procs", "Analytical", "Measured", "paper analytical", "paper measured"],
    )
    for r in rows:
        if r.n_nodes == 1:
            continue
        paper = PAPER_TABLE10.get(r.n_nodes, ("-", "-"))
        table.add_row(
            r.n_nodes, r.analytical_speedup, r.measured_speedup, paper[0], paper[1]
        )
    return table.render()
