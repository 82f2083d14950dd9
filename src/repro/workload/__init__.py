"""Workload generation, the two evaluation protocols, and metric summaries."""

from .arrivals import (
    high_load_count,
    poisson_arrivals,
    run_high_load,
    run_one_at_a_time,
    staggered_arrivals,
    trec_mix_profiles,
)
from .metrics import (
    FailureAccounting,
    LatencySummary,
    failure_accounting,
    percentile,
    summarize_latencies,
    summarize_samples,
)

__all__ = [
    "FailureAccounting",
    "LatencySummary",
    "failure_accounting",
    "high_load_count",
    "percentile",
    "poisson_arrivals",
    "run_high_load",
    "run_one_at_a_time",
    "staggered_arrivals",
    "summarize_latencies",
    "summarize_samples",
    "trec_mix_profiles",
]
