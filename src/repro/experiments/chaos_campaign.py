"""Chaos campaign: randomized fault sweeps against all three strategies.

The hand-written churn study (:mod:`repro.experiments.robustness_exp`)
kills two nodes at fixed times.  The chaos campaign generalises it into a
systematic robustness sweep: for every fault rate in a grid and every
partitioning strategy (SEND / ISEND / RECV), a seeded randomized
:class:`~repro.simulation.chaos.ChaosConfig` schedule — crash storms,
correlated failures, flapping and permanent deaths — is injected into a
full workload run, with the retry/timeout/backoff machinery engaged:

* bounded-retry + backoff in the distribution loops
  (:class:`~repro.core.partitioning.RetryPolicy`),
* migration-dispatch retry in the question dispatcher,
* front-end re-admission of questions whose host died
  (``question_retry_budget``).

Each cell reports the question-conservation ledger (admitted = completed
+ lost + in-flight), retry counts, degraded-mode throughput, recovery
latency of re-admitted questions and the membership protocol's failure
detection latency.  Everything is reproducible from the campaign seed.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from ..core import (
    DistributedQASystem,
    PartitioningStrategy,
    RetryPolicy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from ..simulation import ChaosConfig, generate_chaos_schedule
from ..workload import FailureAccounting, failure_accounting, run_high_load
from .parallel import run_cells
from .report import TextTable

__all__ = [
    "CampaignCell",
    "campaign_retry_policy",
    "detection_latencies",
    "format_campaign",
    "run_campaign",
    "run_campaign_cell",
]

def campaign_retry_policy() -> RetryPolicy:
    """Bounded recovery used by every campaign run.

    Up to 6 recovery rounds per distribution loop, 100 ms initial backoff
    doubling to a 5 s cap.
    """
    return RetryPolicy(
        max_rounds=6, backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=5.0
    )


@dataclass(frozen=True, slots=True)
class CampaignCell:
    """One (strategy, fault rate) cell of the sweep."""

    strategy: str
    fault_rate: float
    accounting: FailureAccounting
    throughput_qpm: float
    makespan_s: float
    #: Node-down transitions the injector actually performed.
    injected_kills: int
    #: Mean injected-kill -> membership-leave gap (protocol detection).
    mean_detection_latency_s: float


def detection_latencies(
    injector_log: t.Sequence[tuple[float, object, bool]],
    membership_log: t.Sequence[tuple[float, int, bool]],
) -> list[float]:
    """Match injected kills with the membership protocol's leave events.

    A kill with no matching leave (the node flapped back up before its
    heartbeat went stale) contributes nothing — the membership protocol
    never saw it, which is the desired behaviour, not a detection miss.
    """
    leaves = sorted(
        (when, nid) for when, nid, live in membership_log if not live
    )
    used: set[int] = set()
    out: list[float] = []
    for killed_at, node_id, up in sorted(injector_log):
        if up:
            continue
        for i, (when, nid) in enumerate(leaves):
            if i in used or nid != node_id or when < killed_at:
                continue
            out.append(when - killed_at)
            used.add(i)
            break
    return out


def run_campaign_cell(
    strategy: PartitioningStrategy,
    fault_rate: float,
    n_nodes: int = 6,
    n_questions: int = 12,
    seed: int = 11,
    retry_budget: int = 3,
    mean_downtime_s: float = 30.0,
    min_live_nodes: int = 2,
    horizon_s: float = 900.0,
    trace: bool = False,
) -> tuple[CampaignCell, DistributedQASystem]:
    """Run one cell: the Section 6.1 recipe under a seeded chaos schedule.

    Returns the cell plus the (finished) system.
    """
    policy = TaskPolicy(
        pr_strategy=strategy,
        ap_strategy=strategy,
        distribution_retry=campaign_retry_policy(),
    )
    system = DistributedQASystem(
        SystemConfig(
            n_nodes=n_nodes,
            strategy=Strategy.DQA,
            policy=policy,
            seed=seed,
            question_retry_budget=retry_budget,
            trace=trace,
        )
    )
    schedule = generate_chaos_schedule(
        ChaosConfig(
            seed=seed,
            horizon_s=horizon_s,
            crash_rate=fault_rate,
            mean_downtime_s=mean_downtime_s,
            min_live_nodes=min_live_nodes,
        ),
        n_nodes,
    )
    system.failures.apply(schedule)
    report = run_high_load(system, seed, n_questions=n_questions)
    latencies = detection_latencies(
        system.failures.log, system.monitoring.membership_log
    )
    cell = CampaignCell(
        strategy=strategy.value,
        fault_rate=fault_rate,
        accounting=failure_accounting(report),
        throughput_qpm=report.throughput_qpm,
        makespan_s=report.makespan_s,
        injected_kills=sum(1 for _, _, up in system.failures.log if not up),
        mean_detection_latency_s=(
            float(np.mean(latencies)) if latencies else 0.0
        ),
    )
    return cell, system


def _cell_worker(
    spec: tuple[str, float, dict[str, t.Any]]
) -> CampaignCell:
    """Process-pool entry point: run one (strategy, fault-rate) cell.

    Takes a picklable spec (the strategy travels by name) and drops the
    finished system — only the cell summary crosses the process
    boundary.
    """
    strategy_name, fault_rate, kwargs = spec
    cell, _ = run_campaign_cell(
        PartitioningStrategy[strategy_name], fault_rate, **kwargs
    )
    return cell


def run_campaign(
    n_nodes: int = 6,
    n_questions: int = 12,
    strategies: t.Sequence[PartitioningStrategy] = tuple(PartitioningStrategy),
    fault_rates: t.Sequence[float] = (0.0, 1.0 / 400.0, 1.0 / 150.0),
    seed: int = 11,
    jobs: int | str | None = None,
    **cell_kwargs: t.Any,
) -> list[CampaignCell]:
    """Sweep fault rates against strategies; every cell must balance.

    Every cell runs the same questions and startup sequence, drawn from
    the campaign seed.  With ``jobs`` > 1 the independent cells run on a
    process pool; results are merged in grid order, so the returned list
    — and any report formatted from it — is byte-identical to a serial
    run.

    Raises :class:`RuntimeError` if any cell loses track of a question
    (completed + lost + in-flight != admitted) — the campaign's core
    safety assertion, not just a reported number.
    """
    shared = dict(cell_kwargs, n_nodes=n_nodes, n_questions=n_questions, seed=seed)
    specs = [
        (strategy.name, fault_rate, shared)
        for fault_rate in fault_rates
        for strategy in strategies
    ]
    cells = run_cells(_cell_worker, specs, jobs=jobs)
    for cell in cells:
        if not cell.accounting.balanced:
            raise RuntimeError(
                f"unaccounted questions in cell {cell.strategy} @ "
                f"rate {cell.fault_rate}: {cell.accounting}"
            )
    return cells


def format_campaign(cells: t.Sequence[CampaignCell]) -> str:
    """Render the campaign sweep as a text table."""
    table = TextTable(
        "Chaos campaign: fault-rate sweep x partitioning strategy "
        "(seeded; admitted = completed + lost, retries re-admit at the "
        "front-end)",
        [
            "strategy",
            "fault rate (/node/s)",
            "kills",
            "admitted",
            "completed",
            "lost",
            "retries",
            "thpt (q/min)",
            "recovery (s)",
            "detect (s)",
        ],
    )
    for c in cells:
        table.add_row(
            c.strategy,
            f"{c.fault_rate:.4f}",
            c.injected_kills,
            c.accounting.admitted,
            c.accounting.completed,
            c.accounting.lost,
            c.accounting.retries,
            c.throughput_qpm,
            c.accounting.mean_recovery_latency_s,
            c.mean_detection_latency_s,
        )
    return table.render()
