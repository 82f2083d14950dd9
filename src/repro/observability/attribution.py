"""Overhead attribution: roll span time up into the Eq 9-23 categories.

The analytical inter-question model (Section 5.1) decomposes a question's
distribution overhead into monitoring (Eq 14), dispatch (Eq 15) and
migration/data-movement (Eq 16-20) terms on top of the useful compute
time.  This module produces the *measured* counterpart from a
:class:`~repro.observability.spans.SpanStream`: each question's span tree
is folded into the categories

    compute, queueing, dispatch, migration, partition_comms,
    monitoring, other

such that the categories sum exactly to the question's wall time (the
root span's duration) — ``other`` is defined as the residual, so the sum
invariant holds by construction and the CI smoke job can assert it.

Within a question the fold walks the tree and buckets every span's *self
time* (duration minus direct durational children) by its category.
Parallel partition stages (span names ``stage:PR`` / ``stage:AP``) get
special treatment because their children overlap in time: compute is the
critical path (the per-node maximum of compute-span time, Table 8's
semantics), then dispatch/comms/retry descendants are clipped into the
remaining stage wall, and whatever is left is ``other`` (resource
queueing inside nodes).

Monitoring is not a per-question activity, so it is attributed at the
aggregate level: the monitors' total busy seconds amortized over the
node-time they monitored (``snapshots written x interval``) give a busy
*fraction*, whose share of the total
question wall is carved out of ``other`` (monitoring overhead manifests
as slowdown of everything else).  The same report compares the measured
monitoring/dispatch/migration overheads side by side with the Eq 14/15/20
predictions, using the run's own measured migration probabilities.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field, replace

from ..model.inter_question import (
    dispatch_overhead,
    migration_overhead,
    monitoring_overhead,
)
from ..model.parameters import ModelParameters
from .metrics import MetricsRegistry
from .names import MONITOR_BROADCASTS, MONITOR_BUSY_S
from .spans import Span, SpanCategory, SpanStream

if t.TYPE_CHECKING:  # pragma: no cover
    from ..core.system import SystemConfig, WorkloadReport

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "QuestionAttribution",
    "AttributionReport",
    "attribute_question",
    "attribute_workload",
    "format_attribution",
]

#: The attribution vocabulary, in report order.
ATTRIBUTION_CATEGORIES = (
    "compute",
    "queueing",
    "dispatch",
    "migration",
    "partition_comms",
    "monitoring",
    "other",
)

#: Span category -> attribution bucket for sequential (non-stage) spans.
_BUCKET = {
    SpanCategory.QUEUE: "queueing",
    SpanCategory.DISPATCH: "dispatch",
    SpanCategory.MIGRATION: "migration",
    SpanCategory.COMPUTE: "compute",
    SpanCategory.COMMS: "partition_comms",
    SpanCategory.PARTITION: "partition_comms",
    SpanCategory.RETRY: "partition_comms",
    SpanCategory.MONITOR: "monitoring",
    SpanCategory.TASK: "other",
}


@dataclass(frozen=True, slots=True)
class QuestionAttribution:
    """One question's wall time split over the attribution categories."""

    qid: int
    wall_s: float
    categories: dict[str, float]

    @property
    def total_attributed_s(self) -> float:
        """Sum over categories; equals ``wall_s`` by construction."""
        return sum(self.categories.values())


def _is_stage(span: Span) -> bool:
    return span.name.startswith("stage:")


def _attribute_stage(
    stream: SpanStream, stage: Span, cats: dict[str, float]
) -> None:
    """Fold a parallel partition stage into the categories.

    Children of a stage overlap in time, so self-time bucketing would
    over-count.  Instead: compute = critical path (max per-node sum of
    compute spans), then dispatch, comms and retry descendants are
    clipped into the remaining stage wall in that order; the remainder is
    ``other``.  The clipping guarantees the stage contributes exactly its
    own duration.
    """
    wall = max(0.0, stage.duration)
    per_node: dict[int, float] = {}
    dispatch_t = comms_t = retry_t = 0.0
    for span in stream.subtree(stage):
        if span is stage or span.is_instant:
            continue
        dur = max(0.0, span.duration)
        if span.cat == SpanCategory.COMPUTE:
            per_node[span.node_id] = per_node.get(span.node_id, 0.0) + dur
        elif span.cat == SpanCategory.DISPATCH:
            dispatch_t += dur
        elif span.cat == SpanCategory.COMMS:
            comms_t += dur
        elif span.cat == SpanCategory.RETRY:
            retry_t += dur
    critical = min(wall, max(per_node.values(), default=0.0))
    remaining = wall - critical
    d = min(dispatch_t, remaining)
    remaining -= d
    c = min(comms_t + retry_t, remaining)
    remaining -= c
    cats["compute"] += critical
    cats["dispatch"] += d
    cats["partition_comms"] += c
    cats["other"] += remaining


def attribute_question(
    stream: SpanStream, root: Span
) -> QuestionAttribution:
    """Fold one question's span tree into the attribution categories.

    ``root`` must be a durational root span (``stream.roots(qid)``).  The
    returned categories sum to ``root.duration`` exactly: every span's
    self time is bucketed by its category, gaps between siblings fall to
    the parent's bucket (the root's gaps to ``other``), and parallel
    stages are folded by :func:`_attribute_stage`.
    """
    cats = {c: 0.0 for c in ATTRIBUTION_CATEGORIES}

    def visit(span: Span, bucket: str) -> None:
        if _is_stage(span):
            _attribute_stage(stream, span, cats)
            return
        kids = [k for k in stream.children(span) if not k.is_instant]
        child_time = sum(max(0.0, k.duration) for k in kids)
        cats[bucket] += max(0.0, span.duration - child_time)
        for kid in kids:
            visit(kid, _BUCKET.get(kid.cat, "other"))

    visit(root, "other")
    return QuestionAttribution(
        qid=root.qid, wall_s=max(0.0, root.duration), categories=cats
    )


@dataclass(slots=True)
class AttributionReport:
    """Aggregate attribution over a workload, plus the model comparison."""

    n_questions: int
    n_nodes: int
    makespan_s: float
    #: Sum of per-question wall (root-span) durations.
    total_wall_s: float
    #: Total seconds per category across all questions; sums (within
    #: float tolerance) to ``total_wall_s``.
    categories: dict[str, float]
    #: Per-question attributions, by qid.
    questions: list[QuestionAttribution] = field(default_factory=list)
    #: Overhead term -> {measured_s, predicted_s, rel_err} (per-question
    #: mean seconds; ``rel_err`` is None when the prediction is ~0).
    model_comparison: dict[str, dict[str, float | None]] = field(
        default_factory=dict
    )

    @property
    def mean_wall_s(self) -> float:
        """Mean per-question wall time."""
        return self.total_wall_s / self.n_questions if self.n_questions else 0.0

    def category_means(self) -> dict[str, float]:
        """Mean per-question seconds for each category."""
        n = max(1, self.n_questions)
        return {k: v / n for k, v in self.categories.items()}

    def max_sum_error(self) -> float:
        """Largest |categories sum - wall| over questions (plus aggregate)."""
        errs = [
            abs(q.total_attributed_s - q.wall_s) for q in self.questions
        ]
        errs.append(abs(sum(self.categories.values()) - self.total_wall_s))
        return max(errs) if errs else 0.0

    def to_dict(self) -> dict[str, t.Any]:
        """JSON-friendly rendering (used by ``repro observe``)."""
        return {
            "n_questions": self.n_questions,
            "n_nodes": self.n_nodes,
            "makespan_s": self.makespan_s,
            "total_wall_s": self.total_wall_s,
            "mean_wall_s": self.mean_wall_s,
            "categories_total_s": dict(self.categories),
            "categories_mean_s": self.category_means(),
            "model_comparison": self.model_comparison,
            "max_sum_error_s": self.max_sum_error(),
        }


def _rel_err(measured: float, predicted: float) -> float | None:
    if abs(predicted) < 1e-12:
        return None
    return (measured - predicted) / predicted


def attribute_workload(
    stream: SpanStream,
    metrics: MetricsRegistry,
    report: "WorkloadReport",
    config: "SystemConfig",
    params: ModelParameters | None = None,
) -> AttributionReport:
    """Attribute a traced workload and compare against Eq 14/15/20.

    The model parameters are re-grounded in the run itself: ``t_question``
    becomes the measured mean wall, ``s_load``/``b_net`` come from the
    system config, the migration probabilities from the run's observed
    migration counts, and the dispatcher scan cost from the policy (when
    the policy models it; otherwise the parameter-table default).  Sizes
    of migrated payloads (``s_question``, ``s_paragraph``, ...) stay at
    the parameter-table values.
    """
    base = params or ModelParameters()
    questions: list[QuestionAttribution] = []
    totals = {c: 0.0 for c in ATTRIBUTION_CATEGORIES}
    for qid in stream.question_ids():
        for root in stream.roots(qid):
            qa = attribute_question(stream, root)
            questions.append(qa)
            for cat, sec in qa.categories.items():
                totals[cat] += sec
    n_questions = len(questions)
    total_wall = sum(q.wall_s for q in questions)
    mean_wall = total_wall / n_questions if n_questions else 0.0

    # Monitoring: amortize the monitors' busy seconds over the node-time
    # they monitored (one interval per snapshot written), then carve that
    # share of the question wall out of ``other`` (clipped so the sum
    # invariant survives).
    monitored_s = metrics.value(MONITOR_BROADCASTS) * config.monitor_interval_s
    busy_frac = metrics.value(MONITOR_BUSY_S) / monitored_s if monitored_s else 0.0
    monitoring_total = min(busy_frac * total_wall, totals["other"])
    totals["monitoring"] += monitoring_total
    totals["other"] -= monitoring_total

    n = max(1, n_questions)
    measured_monitoring = busy_frac * mean_wall
    measured_dispatch = totals["dispatch"] / n
    measured_migration = (totals["migration"] + totals["partition_comms"]) / n

    denom = max(1, report.n_questions)
    scan_cost = getattr(config.policy, "dispatch_scan_cpu_s", 0.0)
    grounded = replace(
        base,
        t_question=mean_wall if mean_wall > 0 else base.t_question,
        s_load=config.monitor_packet_bytes,
        b_net=config.network_bandwidth_bps,
        p_qa=report.migrations_qa / denom,
        p_pr=report.migrations_pr / denom,
        p_ap=report.migrations_ap / denom,
        t_dispatch_per_node=(
            scan_cost if scan_cost > 0 else base.t_dispatch_per_node
        ),
        q_per_processor=max(1.0, report.n_admitted / config.n_nodes),
    )
    pred_monitoring = monitoring_overhead(grounded, config.n_nodes)
    pred_dispatch = dispatch_overhead(grounded, config.n_nodes)
    pred_migration = migration_overhead(grounded, config.n_nodes)
    comparison: dict[str, dict[str, float | None]] = {
        "monitoring": {
            "measured_s": measured_monitoring,
            "predicted_s": pred_monitoring,
            "rel_err": _rel_err(measured_monitoring, pred_monitoring),
        },
        "dispatch": {
            "measured_s": measured_dispatch,
            "predicted_s": pred_dispatch,
            "rel_err": _rel_err(measured_dispatch, pred_dispatch),
        },
        "migration+comms": {
            "measured_s": measured_migration,
            "predicted_s": pred_migration,
            "rel_err": _rel_err(measured_migration, pred_migration),
        },
        "t_dist_total": {
            "measured_s": (
                measured_monitoring + measured_dispatch + measured_migration
            ),
            "predicted_s": pred_monitoring + pred_dispatch + pred_migration,
            "rel_err": _rel_err(
                measured_monitoring + measured_dispatch + measured_migration,
                pred_monitoring + pred_dispatch + pred_migration,
            ),
        },
    }
    return AttributionReport(
        n_questions=n_questions,
        n_nodes=config.n_nodes,
        makespan_s=report.makespan_s,
        total_wall_s=total_wall,
        categories=totals,
        questions=questions,
        model_comparison=comparison,
    )


def format_attribution(report: AttributionReport) -> str:
    """Render the attribution table plus the Eq 14-21 comparison."""
    lines = [
        f"Overhead attribution over {report.n_questions} questions on "
        f"{report.n_nodes} nodes (makespan {report.makespan_s:.1f} s, "
        f"mean question wall {report.mean_wall_s:.2f} s)",
        f"{'category':<16} | {'mean s/question':>15} | {'share':>7}",
        "-" * 44,
    ]
    means = report.category_means()
    wall = max(report.mean_wall_s, 1e-12)
    for cat in ATTRIBUTION_CATEGORIES:
        lines.append(
            f"{cat:<16} | {means[cat]:>15.4f} | {means[cat] / wall:>6.1%}"
        )
    lines.append("-" * 44)
    lines.append(
        f"{'total':<16} | {sum(means.values()):>15.4f} | "
        f"{sum(means.values()) / wall:>6.1%}"
    )
    lines.append("")
    lines.append("Measured vs analytical model (Eq 14/15/20, per question):")
    lines.append(
        f"{'term':<16} | {'measured s':>11} | {'predicted s':>11} | "
        f"{'rel err':>8}"
    )
    lines.append("-" * 56)
    for term, row in report.model_comparison.items():
        err = row["rel_err"]
        err_txt = "n/a" if err is None else f"{err:+7.1%}"
        lines.append(
            f"{term:<16} | {row['measured_s']:>11.4f} | "
            f"{row['predicted_s']:>11.4f} | {err_txt:>8}"
        )
    return "\n".join(lines)
