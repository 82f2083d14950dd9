"""Metric summaries shared by the experiments and benchmarks."""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

if t.TYPE_CHECKING:  # pragma: no cover
    from ..core.system import WorkloadReport

__all__ = [
    "FailureAccounting",
    "LatencySummary",
    "failure_accounting",
    "percentile",
    "summarize_latencies",
    "summarize_samples",
]


def percentile(samples: t.Sequence[float], q: float) -> float:
    """The ``q``-quantile (``q`` in [0, 1]) of ``samples``; 0.0 when empty.

    The single percentile definition shared by every report writer
    (linearly interpolated, matching ``numpy.percentile``) — the
    experiments used to hand-roll their own nearest-rank variants.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), 100.0 * q))


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Distributional summary of question response times."""

    n: int
    mean_s: float
    median_s: float
    p95_s: float
    min_s: float
    max_s: float
    p99_s: float = 0.0

    @property
    def p50_s(self) -> float:
        """The median under its percentile name (JSON symmetry with p95/p99)."""
        return self.median_s

    def to_dict(self) -> dict[str, float | int]:
        """JSON-friendly form used by all report writers."""
        return {
            "n": self.n,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} mean={self.mean_s:.2f}s median={self.median_s:.2f}s "
            f"p95={self.p95_s:.2f}s range=[{self.min_s:.2f}, {self.max_s:.2f}]"
        )


def summarize_samples(samples: t.Sequence[float]) -> LatencySummary:
    """Summarize any sample sequence (seconds) as a :class:`LatencySummary`."""
    times = np.asarray(samples, dtype=float)
    if times.size == 0:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return LatencySummary(
        n=int(times.size),
        mean_s=float(times.mean()),
        median_s=percentile(times, 0.50),
        p95_s=percentile(times, 0.95),
        min_s=float(times.min()),
        max_s=float(times.max()),
        p99_s=percentile(times, 0.99),
    )


def summarize_latencies(report: "WorkloadReport") -> LatencySummary:
    """Summarize a workload report's answered questions' response times."""
    return summarize_samples([r.response_time for r in report.completed])


@dataclass(frozen=True, slots=True)
class FailureAccounting:
    """Question-conservation summary of one (possibly chaotic) run.

    The invariant the chaos campaign asserts on every cell:
    ``completed + lost + in_flight == admitted``.
    """

    admitted: int
    completed: int
    lost: int
    in_flight: int
    retries: int
    mean_recovery_latency_s: float

    @property
    def balanced(self) -> bool:
        return self.completed + self.lost + self.in_flight == self.admitted

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"admitted={self.admitted} completed={self.completed} "
            f"lost={self.lost} in_flight={self.in_flight} "
            f"retries={self.retries} "
            f"recovery={self.mean_recovery_latency_s:.1f}s"
        )


def failure_accounting(report: "WorkloadReport") -> FailureAccounting:
    """Extract the question-conservation ledger from a workload report."""
    return FailureAccounting(
        admitted=report.n_admitted,
        completed=report.n_completed,
        lost=report.n_lost,
        in_flight=report.n_in_flight,
        retries=report.n_retries,
        mean_recovery_latency_s=report.mean_recovery_latency_s,
    )

