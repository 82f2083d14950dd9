"""Extension experiments: robustness of the distributed Q/A design.

Two studies the paper's design goals call for but its evaluation does
not isolate ("scalability: avoid hot points and single points of failure;
flexibility: processors must be able to dynamically join or leave"):

* **Heterogeneous clusters** — halve two nodes' CPU speed and compare the
  partitioning strategies.  The pull-based RECV should degrade gracefully
  (slow nodes simply pull fewer chunks) while the weight-based senders
  suffer, since the load metric cannot see static speed differences.
* **Node churn** — nodes leave and rejoin mid-workload; the membership
  protocol must route around them with bounded damage.
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
from ..core.node import NodeConfig
from ..simulation import FailureSchedule
from ..workload import high_load_count, staggered_arrivals, trec_mix_profiles
from .context import complex_profiles
from .report import TextTable

__all__ = [
    "run_heterogeneous",
    "format_heterogeneous",
    "run_churn",
    "format_churn",
]


# --- heterogeneous clusters ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HeteroRow:
    strategy: str
    homogeneous_ap_s: float
    heterogeneous_ap_s: float

    @property
    def degradation(self) -> float:
        return self.heterogeneous_ap_s / self.homogeneous_ap_s


def run_heterogeneous(
    n_nodes: int = 8,
    slow_nodes: t.Sequence[int] = (2, 5),
    slow_factor: float = 0.5,
    n_questions: int = 8,
    seed: int = 3,
) -> list[HeteroRow]:
    """Compare partitioning strategies on a cluster with slow nodes."""
    profiles = complex_profiles(n_questions, seed=seed)
    overrides = {nid: NodeConfig(cpu_speed=slow_factor) for nid in slow_nodes}
    rows = []
    for strategy in PartitioningStrategy:
        times = {}
        for label, node_overrides in (("homo", None), ("hetero", overrides)):
            acc = []
            for prof in profiles:
                system = DistributedQASystem(
                    SystemConfig(
                        n_nodes=n_nodes,
                        strategy=Strategy.DQA,
                        policy=TaskPolicy(ap_strategy=strategy),
                        node_overrides=node_overrides,
                    )
                )
                acc.append(
                    system.run_workload([prof]).results[0].module_times["AP"]
                )
            times[label] = float(np.mean(acc))
        rows.append(
            HeteroRow(
                strategy=strategy.value,
                homogeneous_ap_s=times["homo"],
                heterogeneous_ap_s=times["hetero"],
            )
        )
    return rows


def format_heterogeneous(rows: t.Sequence[HeteroRow]) -> str:
    """Render the heterogeneity rows as a text table."""
    table = TextTable(
        "Extension: heterogeneous cluster (2 of 8 nodes at half CPU speed)",
        ["AP strategy", "AP homo (s)", "AP hetero (s)", "degradation"],
    )
    for r in rows:
        table.add_row(
            r.strategy, r.homogeneous_ap_s, r.heterogeneous_ap_s,
            f"{r.degradation:.2f}x",
        )
    return table.render()


# --- node churn ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChurnResult:
    n_questions: int
    completed_no_retry: int
    completed_with_retry: int
    throughput_qpm: float
    baseline_throughput_qpm: float


def _churn_schedule(n_nodes: int) -> FailureSchedule:
    return (
        FailureSchedule()
        .kill_at(60.0, n_nodes - 1)
        .recover_at(240.0, n_nodes - 1)
        .kill_at(120.0, n_nodes - 2)
        .recover_at(300.0, n_nodes - 2)
    )


def run_churn(
    n_nodes: int = 8,
    seed: int = 11,
) -> ChurnResult:
    """Run the high-load workload through two node outages."""
    n_q = high_load_count(n_nodes)
    profiles = trec_mix_profiles(n_q, seed=seed)
    arrivals = staggered_arrivals(n_q, 2.0, seed=seed)

    baseline = DistributedQASystem(
        SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA)
    ).run_workload(profiles, arrivals)

    plain = DistributedQASystem(SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA))
    plain.failures.apply(_churn_schedule(n_nodes))
    no_retry = plain.run_workload(profiles, arrivals)

    retrying = DistributedQASystem(
        SystemConfig(n_nodes=n_nodes, strategy=Strategy.DQA)
    )
    retrying.failures.apply(_churn_schedule(n_nodes))
    with_retry = retrying.run_workload(profiles, arrivals, resubmit_failed=3)

    return ChurnResult(
        n_questions=n_q,
        completed_no_retry=sum(1 for r in no_retry.results if not r.failed),
        completed_with_retry=sum(
            1 for r in with_retry.results if not r.failed
        ),
        throughput_qpm=with_retry.throughput_qpm,
        baseline_throughput_qpm=baseline.throughput_qpm,
    )


def format_churn(result: ChurnResult) -> str:
    """Render the churn outcome as a text table."""
    table = TextTable(
        "Extension: node churn (two of eight nodes leave and rejoin)",
        ["Questions", "Completed (no retry)", "Completed (retry<=3)",
         "Throughput w/ retry", "No-churn baseline"],
    )
    table.add_row(
        result.n_questions,
        result.completed_no_retry,
        result.completed_with_retry,
        result.throughput_qpm,
        result.baseline_throughput_qpm,
    )
    return table.render()
