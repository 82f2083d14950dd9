"""Simulated system speedup against Eq 23 (``ext-scale``).

The paper's Figure 8 is Eq 23 alone: ``S(N) = N / (1 + T_dist(N)/T̄)``,
the speedup of N processors each kept busy with ``q`` questions.  This
section measures the same ratio on the simulator, in that regime: every
cell runs the Section 6.1 recipe, :func:`~repro.workload.run_high_load`,
with its 8 questions per node on the default cluster (DQA, RECV, one
monitor group, Eq 14 charged as a reservation), and staggers arrivals by
``2 s / N`` so that each node is offered the N = 1 anchor's rate at
every N.

Throughput is the middle-half completion rate (:func:`_middle_half_rate`),
the rate at saturation: completions divided by a makespan would also
count the warm-up and the drain tail.  Measured speedup is
``rate(N, seed) / rate(1, seed)``, and the table reports it, its ratio
to Eq 23 and the busiest node's hosted-question count over the per-node
mean, each across seeds.

How fast the simulator gets through a cell is the benchmark's business
(``bench/run.py``, ``sim_scale128``), not this experiment's.
"""

from __future__ import annotations

import statistics
import typing as t
from collections import Counter
from dataclasses import asdict, dataclass

from ..core import DistributedQASystem, SystemConfig
from ..model import ModelParameters, system_speedup
from ..workload import run_high_load
from .parallel import run_cells
from .report import TextTable

__all__ = ["ScaleCell", "run_scale", "format_scale"]


@dataclass(frozen=True, slots=True)
class ScaleCell:
    """One simulated (N, seed) cell."""

    n_nodes: int
    seed: int
    #: Middle-half completion rate, questions per minute.
    rate_qpm: float
    #: Busiest node's hosted-question count over the per-node mean.
    busiest_over_mean: float


def _middle_half_rate(completion_times: t.Sequence[float]) -> float:
    """Completions per minute between the k/4-th and 3k/4-th completion.

    Sorts the ``k`` completion times and divides the completions between
    the ``⌊k/4⌋``-th and ``⌊3k/4⌋``-th (0-based) by the time between
    them, which leaves out both the warm-up and the drain tail.
    """
    times = sorted(completion_times)
    k = len(times)
    if k < 4:
        raise ValueError(f"middle-half rate needs >= 4 completions, got {k}")
    lo, hi = k // 4, 3 * k // 4
    width = times[hi] - times[lo]
    if width <= 0:
        raise ValueError("middle-half window has zero width")
    return 60.0 * (hi - lo) / width


def _scale_cell(spec: tuple[int, int]) -> ScaleCell:
    """Pool worker: simulate one cell."""
    n_nodes, seed = spec
    system = DistributedQASystem(
        SystemConfig(n_nodes=n_nodes, collect_metrics=False)
    )
    completed = run_high_load(system, seed, stagger_s=2.0 / n_nodes).completed
    hosted = Counter(r.host_node for r in completed)
    return ScaleCell(
        n_nodes=n_nodes,
        seed=seed,
        rate_qpm=_middle_half_rate([r.end_time for r in completed]),
        busiest_over_mean=max(hosted.values()) * n_nodes / len(completed),
    )


def run_scale(
    node_counts: t.Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    seeds: t.Sequence[int] = (11, 23, 37),
    jobs: int | str | None = None,
) -> dict[str, t.Any]:
    """Run the ladder; N = 1, added if missing, anchors each seed's speedup."""
    params = ModelParameters()
    node_counts = tuple(sorted(set(node_counts) | {1}))
    specs = [(n, seed) for n in node_counts for seed in seeds]
    cells = run_cells(_scale_cell, specs, jobs=jobs)
    by_key = {(c.n_nodes, c.seed): c for c in cells}

    rows = []
    for n in node_counts:
        analytical = system_speedup(params, n)
        speedups = [
            by_key[(n, s)].rate_qpm / by_key[(1, s)].rate_qpm for s in seeds
        ]
        rows.append(
            {
                "n_nodes": n,
                "analytical_speedup": analytical,
                "speedups": speedups,
                "ratios": [x / analytical for x in speedups],
                "busiest_over_mean": [
                    by_key[(n, s)].busiest_over_mean for s in seeds
                ],
            }
        )
    return {
        "seeds": list(seeds),
        "cells": [asdict(c) for c in cells],
        "rows": rows,
    }


def format_scale(summary: dict[str, t.Any]) -> str:
    """Human-readable report of the ladder (medians over seeds)."""
    seeds = ", ".join(str(s) for s in summary["seeds"])
    table = TextTable(
        "Eq 23 vs simulated speedup at steady state "
        f"(8 q/node, stagger 2 s / N, seeds {seeds})",
        ["N", "Eq 23", "Measured", "ratio [min, max]", "busiest/mean"],
    )
    for row in summary["rows"]:
        ratios = row["ratios"]
        table.add_row(
            row["n_nodes"],
            row["analytical_speedup"],
            statistics.median(row["speedups"]),
            f"{statistics.median(ratios):.2f} "
            f"[{min(ratios):.2f}, {max(ratios):.2f}]",
            statistics.median(row["busiest_over_mean"]),
        )
    return table.render()
