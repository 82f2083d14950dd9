"""The Section 5 analytical performance model."""

from .calibration import (
    PAPER_TABLE4_N,
    PAPER_TABLE4_S,
    fit_intra_constants,
    grid_error,
)
from .inter_question import (
    dispatch_overhead,
    distribution_overhead,
    migration_overhead,
    monitoring_overhead,
    monitoring_round_s,
    system_efficiency,
    system_speedup,
)
from .intra_question import (
    IntraLimit,
    parallel_time,
    practical_processor_limit,
    question_speedup,
    question_time,
    sequential_overhead_time,
    upper_limit_grid,
)
from .parameters import ModelParameters, bandwidth_bps

__all__ = [
    "IntraLimit",
    "ModelParameters",
    "PAPER_TABLE4_N",
    "PAPER_TABLE4_S",
    "bandwidth_bps",
    "dispatch_overhead",
    "distribution_overhead",
    "fit_intra_constants",
    "grid_error",
    "migration_overhead",
    "monitoring_overhead",
    "monitoring_round_s",
    "parallel_time",
    "practical_processor_limit",
    "question_speedup",
    "question_time",
    "sequential_overhead_time",
    "system_efficiency",
    "system_speedup",
    "upper_limit_grid",
]
