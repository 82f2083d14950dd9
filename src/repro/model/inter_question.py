"""Inter-question parallelism model (Section 5.1, Eq 9-23).

System speedup when N nodes each run q questions with all three
dispatchers active but no partitioning (the high-load regime):

    S(N) = N / (1 + T_dist(N) / T̄)                        (Eq 12/23)

with the per-question distribution overhead

    T_dist(N) = T_loadmon + T_dispatch + T_migration:

* load monitoring (Eq 14): every second each node measures its load
  (t_load), broadcasts S_load bytes on a medium shared by N broadcasters,
  and stores N peer entries; over a question lasting T̄ seconds that is
  ``T̄ · (t_load + N·S_load/B_net + N·S_load/B_mem)``;
* dispatch (Eq 15): the three dispatchers each scan N load entries;
* migration (Eq 16-20): with probabilities p_qa/p_pr/p_ap the question,
  the paragraphs, or the accepted paragraphs move across the network,
  whose available bandwidth is reduced by the N·q·p_net concurrent users.
"""

from __future__ import annotations

from .parameters import ModelParameters

__all__ = [
    "monitoring_overhead",
    "dispatch_overhead",
    "migration_overhead",
    "distribution_overhead",
    "system_speedup",
    "system_efficiency",
]


def monitoring_overhead(p: ModelParameters, n: float) -> float:
    """Eq 14: load-monitoring overhead over one question's lifetime."""
    per_second = (
        p.t_load
        + n * p.s_load / (p.b_net / 8.0)
        + n * p.s_load / (p.b_mem / 8.0)
    )
    return p.t_question * per_second


def dispatch_overhead(p: ModelParameters, n: float) -> float:
    """Eq 15: three dispatchers scanning N load-table entries each."""
    return 3.0 * p.t_dispatch_per_node * n


def migration_overhead(p: ModelParameters, n: float) -> float:
    """Eq 20: expected migration traffic at contended bandwidth.

    The effective per-transfer bandwidth is ``B_net / (N·q·p_net)`` — all
    simultaneously network-active questions share the medium.
    """
    bytes_moved = (
        p.p_qa * (p.s_question + p.n_answers * p.s_answer)
        + (p.p_pr * p.n_paragraphs + p.p_ap * p.n_accepted) * p.s_paragraph
    )
    contention = n * p.q_per_processor * p.p_net
    return bytes_moved * contention / (p.b_net / 8.0)


def distribution_overhead(p: ModelParameters, n: float) -> float:
    """Eq 21: total per-question distribution overhead T_dist(N)."""
    return (
        monitoring_overhead(p, n)
        + dispatch_overhead(p, n)
        + migration_overhead(p, n)
    )


def system_speedup(p: ModelParameters, n: float) -> float:
    """Eq 23: S(N) = N / (1 + T_dist(N)/T̄)."""
    if n < 1:
        raise ValueError("processor count must be >= 1")
    return n / (1.0 + distribution_overhead(p, n) / p.t_question)


def system_efficiency(p: ModelParameters, n: float) -> float:
    """E = S(N)/N (Section 5.1 reports ~0.9 at 1000 nodes on 1 Gbps)."""
    return system_speedup(p, n) / n
