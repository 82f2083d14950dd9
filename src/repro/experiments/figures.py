"""Figures 7, 8 and 9 — traces and analytical speedup curves.

* Figure 7 — execution traces of one complex question on a homogeneous
  4-node cluster under RECV PR partitioning combined with SEND, ISEND or
  RECV answer-processing partitioning.
* Figure 8(a) — analytical *system* speedup (inter-question model) up to
  1000 processors for 10 Mbps / 100 Mbps / 1 Gbps networks.
* Figure 9 — analytical *question* speedup (intra-question model):
  (a) fixed 1 Gbps disk, varying network; (b) fixed 1 Gbps network,
  varying disk.
"""

from __future__ import annotations

import typing as t

from ..core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from ..model import ModelParameters, bandwidth_bps, question_speedup, system_speedup
from ..observability.spans import render_trace
from .context import complex_profiles
from .parallel import run_cells
from .report import format_series

__all__ = [
    "run_fig7_trace",
    "run_fig8",
    "format_fig8",
    "run_fig9",
    "format_fig9",
]


def run_fig7_trace(
    ap_strategy: PartitioningStrategy = PartitioningStrategy.RECV,
    seed: int = 7,
) -> str:
    """One question's trace on 4 nodes (Figure 7 style)."""
    profile = complex_profiles(1, seed=seed)[0]
    policy = TaskPolicy(ap_strategy=ap_strategy)
    system = DistributedQASystem(
        SystemConfig(n_nodes=4, strategy=Strategy.DQA, policy=policy, trace=True)
    )
    system.run_workload([profile])
    header = (
        f"Figure 7 trace: RECV for PR/PS, {ap_strategy.value} for AP "
        f"(question {profile.qid}, {profile.n_accepted} accepted paragraphs)"
    )
    return header + "\n" + render_trace(system.spans.instants())


def _speedup_series(
    spec: tuple[str, float | None, float | None, ModelParameters, tuple[int, ...]]
) -> list[tuple[float, float]]:
    """Pool worker: one analytic speedup curve (system or question).

    ``b_net``/``b_disk`` are bits/second overrides (None keeps the
    parameter set's value).
    """
    kind, b_net, b_disk, params, ns = spec
    p = params.with_bandwidths(b_net=b_net, b_disk=b_disk)
    fn = system_speedup if kind == "system" else question_speedup
    return [(float(n), fn(p, n)) for n in ns]


def run_fig8(
    net_labels: t.Sequence[str] = ("10 Mbps", "100 Mbps", "1 Gbps"),
    max_n: int = 1000,
    step: int = 50,
    params: ModelParameters | None = None,
    jobs: int | str | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """Figure 8(a): analytical system speedup vs processor count."""
    params = params or ModelParameters()
    ns = tuple(sorted(set(list(range(1, max_n + 1, step)) + [max_n])))
    specs = [
        ("system", bandwidth_bps(label), None, params, ns)
        for label in net_labels
    ]
    return dict(zip(net_labels, run_cells(_speedup_series, specs, jobs=jobs)))


def format_fig8(series: dict[str, list[tuple[float, float]]]) -> str:
    """Render Figure 8(a) as an ASCII chart plus the data columns."""
    from .ascii_chart import ascii_chart

    return (
        ascii_chart(
            series,
            title="Figure 8(a): analytical system speedup vs processors",
            x_label="processors",
            y_label="speedup",
        )
        + "\n\n"
        + format_series("Figure 8(a) data", series, x_label="N")
    )


def run_fig9(
    params: ModelParameters | None = None,
    max_n: int = 200,
    step: int = 10,
    jobs: int | str | None = None,
) -> tuple[dict[str, list[tuple[float, float]]], dict[str, list[tuple[float, float]]]]:
    """Figure 9: question speedup curves.

    Returns (panel_a, panel_b): (a) disk fixed at 1 Gbps, network swept
    over 1 Mbps..1 Gbps; (b) network fixed at 1 Gbps, disk swept over
    100 Mbps..1 Gbps.
    """
    params = params or ModelParameters()
    ns = tuple(sorted(set(list(range(1, max_n + 1, step)) + [max_n])))

    a_labels = ("1 Mbps", "10 Mbps", "100 Mbps", "1 Gbps")
    b_labels = ("100 Mbps", "250 Mbps", "500 Mbps", "1 Gbps")
    gbps = bandwidth_bps("1 Gbps")
    specs = [
        ("question", bandwidth_bps(label), gbps, params, ns)
        for label in a_labels
    ] + [
        ("question", gbps, bandwidth_bps(label), params, ns)
        for label in b_labels
    ]
    curves = run_cells(_speedup_series, specs, jobs=jobs)
    panel_a = dict(zip(a_labels, curves[: len(a_labels)]))
    panel_b = dict(zip(b_labels, curves[len(a_labels) :]))
    return panel_a, panel_b


def format_fig9(
    panels: tuple[
        dict[str, list[tuple[float, float]]],
        dict[str, list[tuple[float, float]]],
    ]
) -> str:
    """Render both Figure 9 panels as ASCII charts plus data columns."""
    from .ascii_chart import ascii_chart

    a, b = panels
    return (
        ascii_chart(
            a,
            title="Figure 9(a): question speedup, disk 1 Gbps, varying network",
            x_label="processors",
        )
        + "\n\n"
        + ascii_chart(
            b,
            title="Figure 9(b): question speedup, network 1 Gbps, varying disk",
            x_label="processors",
        )
        + "\n\n"
        + format_series("Figure 9(a) data", a, x_label="N")
        + "\n\n"
        + format_series("Figure 9(b) data", b, x_label="N")
    )
