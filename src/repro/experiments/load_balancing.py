"""Tables 5, 6 and 7 — the high-load load-balancing comparison.

Protocol (Section 6.1): for N in {4, 8, 12} processors, start 8N
questions (twice the overload level) at 0-2 s staggered intervals, drawn
from the mixed TREC-8/TREC-9 population, with a perfect round-robin
initial distribution; run under the DNS, INTER and DQA strategies with
identical questions and startup sequence; report

* Table 5 — system throughput (questions/minute),
* Table 6 — average question response times (seconds),
* Table 7 — migrations at the three scheduling points.

Paper shapes to reproduce: DNS < INTER < DQA throughput (INTER ≈ +21 %
over DNS, DQA ≈ +29 % over INTER); response times ordered the other way;
PR/AP dispatchers visibly active in DQA's Table 7 column.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from ..core import DistributedQASystem, Strategy, SystemConfig
from ..workload import run_high_load
from .parallel import run_cells
from .report import TextTable

__all__ = ["LoadBalancingCell", "run_load_balancing", "format_tables_5_6_7"]

PAPER_TABLE5 = {
    (4, "DNS"): 2.64, (4, "INTER"): 3.45, (4, "DQA"): 4.18,
    (8, "DNS"): 5.04, (8, "INTER"): 5.52, (8, "DQA"): 7.77,
    (12, "DNS"): 7.89, (12, "INTER"): 9.71, (12, "DQA"): 12.09,
}
PAPER_TABLE6 = {
    (4, "DNS"): 143.88, (4, "INTER"): 122.51, (4, "DQA"): 111.85,
    (8, "DNS"): 135.30, (8, "INTER"): 118.82, (8, "DQA"): 113.53,
    (12, "DNS"): 132.45, (12, "INTER"): 115.29, (12, "DQA"): 106.03,
}
PAPER_TABLE7 = {
    (4, "INTER"): {"QA": 8},
    (4, "DQA"): {"QA": 17, "PR": 10, "AP": 10},
    (8, "INTER"): {"QA": 15},
    (8, "DQA"): {"QA": 26, "PR": 34, "AP": 33},
    (12, "INTER"): {"QA": 23},
    (12, "DQA"): {"QA": 37, "PR": 43, "AP": 41},
}


@dataclass(frozen=True, slots=True)
class LoadBalancingCell:
    """One (processor count, strategy) measurement, averaged over seeds."""

    n_nodes: int
    strategy: str
    throughput_qpm: float
    mean_response_s: float
    mean_sojourn_s: float
    migrations_qa: float
    migrations_pr: float
    migrations_ap: float


def _lb_cell(spec: tuple[int, str, tuple[int, ...]]) -> LoadBalancingCell:
    """Pool worker: one (node count, strategy) cell, averaged over seeds."""
    n_nodes, strategy_name, seeds = spec
    strategy = Strategy[strategy_name]
    reports = [
        run_high_load(
            DistributedQASystem(
                SystemConfig(n_nodes=n_nodes, strategy=strategy, seed=seed)
            ),
            seed,
        )
        for seed in seeds
    ]

    def mean(field: str) -> float:
        return float(np.mean([getattr(r, field) for r in reports]))

    return LoadBalancingCell(
        n_nodes=n_nodes,
        strategy=strategy.value,
        throughput_qpm=mean("throughput_qpm"),
        mean_response_s=mean("mean_response_s"),
        mean_sojourn_s=mean("mean_sojourn_s"),
        migrations_qa=mean("migrations_qa"),
        migrations_pr=mean("migrations_pr"),
        migrations_ap=mean("migrations_ap"),
    )


def run_load_balancing(
    node_counts: t.Sequence[int] = (4, 8, 12),
    seeds: t.Sequence[int] = (11, 23, 37),
    jobs: int | str | None = None,
) -> list[LoadBalancingCell]:
    """Run the full three-strategy comparison.

    The nine (N, strategy) cells are independent simulations; with
    ``jobs`` > 1 they run on a process pool and merge in grid order.
    """
    specs = [
        (n_nodes, strategy.name, tuple(seeds))
        for n_nodes in node_counts
        for strategy in (Strategy.DNS, Strategy.INTER, Strategy.DQA)
    ]
    return run_cells(_lb_cell, specs, jobs=jobs)


def format_tables_5_6_7(cells: t.Sequence[LoadBalancingCell]) -> str:
    """Render Tables 5, 6 and 7 from one set of cells."""
    by_key = {(c.n_nodes, c.strategy): c for c in cells}
    node_counts = sorted({c.n_nodes for c in cells})

    t5 = TextTable(
        "Table 5: system throughput (questions/minute)",
        ["Processors", "DNS", "INTER", "DQA", "paper DNS/INTER/DQA"],
    )
    t6 = TextTable(
        "Table 6: average question response times (seconds)",
        ["Processors", "DNS", "INTER", "DQA", "paper DNS/INTER/DQA"],
    )
    t7 = TextTable(
        "Table 7: migrated questions at the three scheduling points",
        ["Workload", "INTER QA", "DQA QA", "DQA PR", "DQA AP", "paper DQA QA/PR/AP"],
    )
    for n in node_counts:
        t5.add_row(
            n,
            by_key[(n, "DNS")].throughput_qpm,
            by_key[(n, "INTER")].throughput_qpm,
            by_key[(n, "DQA")].throughput_qpm,
            "/".join(
                f"{PAPER_TABLE5[(n, s)]:.2f}" for s in ("DNS", "INTER", "DQA")
            )
            if (n, "DNS") in PAPER_TABLE5
            else "-",
        )
        t6.add_row(
            n,
            by_key[(n, "DNS")].mean_response_s,
            by_key[(n, "INTER")].mean_response_s,
            by_key[(n, "DQA")].mean_response_s,
            "/".join(
                f"{PAPER_TABLE6[(n, s)]:.0f}" for s in ("DNS", "INTER", "DQA")
            )
            if (n, "DNS") in PAPER_TABLE6
            else "-",
        )
        paper7 = PAPER_TABLE7.get((n, "DQA"), {})
        t7.add_row(
            f"{8 * n} questions ({n} procs)",
            by_key[(n, "INTER")].migrations_qa,
            by_key[(n, "DQA")].migrations_qa,
            by_key[(n, "DQA")].migrations_pr,
            by_key[(n, "DQA")].migrations_ap,
            f"{paper7.get('QA', '-')}/{paper7.get('PR', '-')}/{paper7.get('AP', '-')}",
        )
    return "\n\n".join([t5.render(), t6.render(), t7.render()])
