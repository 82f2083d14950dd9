"""Run every experiment and emit the full report.

``python -m repro experiments`` calls :func:`run_all`, which regenerates
every table and figure of the paper (plus the ablations) and prints them
in order — the one-shot entry point used to produce EXPERIMENTS.md's
measured columns.  Individual experiments are importable separately.
"""

from __future__ import annotations

import sys
import time
import typing as t

from ..core import PartitioningStrategy
from .ablations import (
    format_concurrency_sweep,
    format_dispatcher_ablation,
    format_margin_sweep,
    format_threshold_sweep,
    run_concurrency_sweep,
    run_dispatcher_ablation,
    run_margin_sweep,
    run_threshold_sweep,
)
from .figures import format_fig8, format_fig9, run_fig7_trace, run_fig8, run_fig9
from .intra_question_exp import (
    format_table8,
    format_table9,
    format_table10,
    run_intra_question,
)
from .load_balancing import format_tables_5_6_7, run_load_balancing
from .partitioning_exp import (
    format_fig10,
    format_table11,
    run_fig10,
    run_table11,
)
from .table1_examples import format_table1, run_table1
from .table2_module_analysis import format_table2, run_table2
from .table3_resource_weights import format_table3, run_table3
from .table4_upper_limits import format_table4, run_table4

from .parallel import run_cells

__all__ = ["run_all", "run_experiment", "EXPERIMENTS"]

#: name -> callable returning the rendered report section.
EXPERIMENTS: dict[str, t.Callable[[], str]] = {
    "table1": lambda: format_table1(run_table1()),
    "table2": lambda: format_table2(run_table2()),
    "table3": lambda: format_table3(run_table3()),
    "table4": lambda: format_table4(run_table4()),
    "tables5-7": lambda: format_tables_5_6_7(run_load_balancing()),
    "tables8-10": lambda: _tables_8_9_10(),
    "table11": lambda: format_table11(run_table11()),
    "fig7": lambda: "\n\n".join(
        run_fig7_trace(s)
        for s in (
            PartitioningStrategy.SEND,
            PartitioningStrategy.ISEND,
            PartitioningStrategy.RECV,
        )
    ),
    "fig8": lambda: format_fig8(run_fig8()),
    "fig9": lambda: format_fig9(run_fig9()),
    "fig10": lambda: format_fig10(run_fig10()),
    "ablation-dispatchers": lambda: format_dispatcher_ablation(
        run_dispatcher_ablation()
    ),
    "ablation-concurrency": lambda: format_concurrency_sweep(
        run_concurrency_sweep()
    ),
    "ablation-threshold": lambda: format_threshold_sweep(run_threshold_sweep()),
    "ablation-margin": lambda: format_margin_sweep(run_margin_sweep()),
    "ext-chaos": lambda: _ext_chaos(),
    "ext-heterogeneous": lambda: _ext_heterogeneous(),
    "ext-churn": lambda: _ext_churn(),
    "ext-scale": lambda: _ext_scale(),
    "ext-event-census": lambda: _ext_event_census(),
}


def _ext_chaos() -> str:
    from .chaos_campaign import format_campaign, run_campaign

    return format_campaign(run_campaign())


def _ext_scale() -> str:
    from .scale import format_scale, run_scale

    return format_scale(run_scale())


def _ext_event_census() -> str:
    from .event_census import census, format_census

    # The benchmark's two simulator shapes (paper16, scale128), seed 101.
    return "\n\n".join(
        format_census(n, 128, 101, census(n, 128, 101)) for n in (16, 128)
    )


def _ext_heterogeneous() -> str:
    from .robustness_exp import format_heterogeneous, run_heterogeneous

    return format_heterogeneous(run_heterogeneous())


def _ext_churn() -> str:
    from .robustness_exp import format_churn, run_churn

    return format_churn(run_churn())


def _tables_8_9_10() -> str:
    rows = run_intra_question()
    return "\n\n".join(
        [format_table8(rows), format_table9(rows), format_table10(rows)]
    )


def run_experiment(name: str) -> str:
    """Render one experiment section (module-level: a valid pool worker)."""
    return EXPERIMENTS[name]()


def run_all(
    only: t.Sequence[str] | None = None,
    stream: t.TextIO | None = None,
    jobs: int | str | None = None,
) -> None:
    """Run (a subset of) the experiments, printing each section.

    With ``jobs`` > 1 the sections run on a process pool and are merged
    back in request order, so the report written to ``stream`` is
    byte-identical to a serial run.  Wall-clock timings go to stderr —
    they vary run to run and must not perturb the report itself.
    """
    if stream is None:
        stream = sys.stdout  # resolved at call time (test capture works)
    names = list(only) if only else list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}; known: {list(EXPERIMENTS)}")
    t_start = time.perf_counter()
    from .parallel import resolve_jobs

    if resolve_jobs(jobs) <= 1:
        # Serial: print each section as soon as it is ready.
        for name in names:
            t0 = time.perf_counter()
            section = run_experiment(name)
            dt = time.perf_counter() - t0
            print(f"\n### {name}\n", file=stream)
            print(section, file=stream)
            print(f"[runner] {name}: {dt:.1f}s", file=sys.stderr)
    else:
        for name, section in zip(names, run_cells(run_experiment, names, jobs=jobs)):
            print(f"\n### {name}\n", file=stream)
            print(section, file=stream)
    print(
        f"[runner] {len(names)} section(s) in "
        f"{time.perf_counter() - t_start:.1f}s wall",
        file=sys.stderr,
    )
