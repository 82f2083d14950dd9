"""Extension: cross-validating the analytical model against the simulator.

The paper validates its intra-question model against measurements
(Table 10) but never closes the loop on the *inter*-question model (Eq
23) — its Figure 8 is analytical only.  We can: run the high-load
workload at several cluster sizes on the simulator, compute the measured
system speedup (throughput(N) / throughput(1)), and compare with Eq 23's
prediction at the same N.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from ..core import DistributedQASystem, Strategy, SystemConfig
from ..model import ModelParameters, system_speedup
from ..workload import staggered_arrivals, trec_mix_profiles
from .report import TextTable

__all__ = [
    "SpeedupPoint",
    "run_inter_validation",
    "format_inter_validation",
]


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
        n_q = questions_per_node * n
        acc = []
        for seed in seeds:
            profiles = trec_mix_profiles(n_q, seed=seed)
            arrivals = staggered_arrivals(n_q, 2.0, seed=seed)
            system = DistributedQASystem(
                SystemConfig(n_nodes=n, strategy=Strategy.DQA)
            )
            acc.append(system.run_workload(profiles, arrivals).throughput_qpm)
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
        ratio = (
            p.measured_speedup / p.analytical_speedup
            if p.analytical_speedup
            else 0.0
        )
        table.add_row(
            p.n_nodes, p.measured_speedup, p.analytical_speedup, f"{ratio:.2f}"
        )
    return table.render()
