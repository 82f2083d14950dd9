"""Collection-selection experiment — the ``ext-selection`` section.

Measures the quality of the federated collection selector
(:mod:`repro.retrieval.selection`) from both ends of the stack:

* **Real pipeline** — a Zipf workload is answered twice on fresh
  retriever stacks: exhaustive broadcast and **predictive** selection
  (mediator-style scoring; may trade recall for fan-out).  Reported:
  prune rate, ``retrieval.postings_scanned``
  reduction, and selector quality against ground truth — a collection is
  *useful* for a question iff exhaustive retrieval pulls at least one
  paragraph from it, so precision/recall of the selected set and
  answer agreement are measured, not asserted.  What selection does to
  q/s and latency is the benchmark's business (``bench/run.py``).

* **Simulated cluster** — a 16 -> 128 node sweep runs the same synthetic
  workload with unrouted and routed profiles (the routed ones carry a
  top-k-by-share routing decision whose keep fraction defaults to the
  *measured* predictive keep rate; they differ in nothing else),
  attributing traced spans into
  the compute/dispatch/partition-comms categories: the partition-comms
  column must shrink with selection on, because SEND/ISEND/RECV now
  partition over the predicted collections only (Eq 14/15).
"""

from __future__ import annotations

import typing as t
from dataclasses import asdict, dataclass

from ..core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from ..corpus import CorpusConfig
from ..observability.attribution import attribute_workload
from ..observability.names import POSTINGS_SCANNED
from ..qa import QAPipeline, Question
from ..qa.profiles import SyntheticProfileGenerator, SyntheticProfileParams
from ..retrieval import IndexedCorpus
from ..serving.loadgen import zipf_workload
from ..workload import staggered_arrivals
from .context import build_context
from .parallel import run_cells
from .report import TextTable

__all__ = ["SelectionConfig", "run_selection", "format_selection"]


@dataclass(frozen=True, slots=True)
class SelectionConfig:
    """Knobs of the collection-selection experiment."""

    #: Real-pipeline workload (same construction as ``repro loadgen``).
    n_questions: int = 120
    n_unique: int = 60
    zipf_exponent: float = 1.1
    corpus_seed: int = 42
    workload_seed: int = 7
    conjunction_cache: int = 256
    #: Selector cutoffs (see :class:`CollectionSelector`).
    predictive_top_k: int | None = 4
    predictive_threshold: float = 0.0
    #: Simulated sweep: node counts, questions per node, seed.
    node_counts: tuple[int, ...] = (16, 32, 64, 128)
    sim_questions_per_node: int = 2
    sim_seed: int = 11
    #: Keep fraction of the simulated routing decision; ``None`` = use
    #: the measured predictive keep rate from the real-pipeline half.
    sim_selected_fraction: float | None = None
    #: Parallel sim cells (None = serial; "auto"/int as in other sweeps).
    jobs: int | str | None = None


def _mode_quality(
    selected_sets: t.Sequence[frozenset[int]],
    useful_sets: t.Sequence[frozenset[int]],
) -> dict[str, float]:
    """Mean precision/recall of selected vs useful collections.

    Questions with no useful collection at all (nothing retrieved
    anywhere) are skipped for recall and count precision only when the
    selector kept something — standard mediator-evaluation convention.
    """
    precisions: list[float] = []
    recalls: list[float] = []
    for sel, useful in zip(selected_sets, useful_sets):
        if sel:
            precisions.append(len(sel & useful) / len(sel))
        if useful:
            recalls.append(len(sel & useful) / len(useful))
    return {
        "precision_mean": (
            sum(precisions) / len(precisions) if precisions else 1.0
        ),
        "recall_mean": sum(recalls) / len(recalls) if recalls else 1.0,
    }


def _sim_cell(
    spec: tuple[int, float | None, int, int, str]
) -> dict[str, t.Any]:
    """Pool worker: one traced simulated cell, attributed.

    ``fraction`` is the profiles' routing keep fraction; ``None`` builds
    unrouted profiles (the "off" cell), identical in every other field.
    """
    n_nodes, fraction, seed, qpn, ap_strategy = spec
    n_q = qpn * n_nodes
    params = SyntheticProfileParams(selected_fraction=fraction)
    profiles = SyntheticProfileGenerator(params=params, seed=seed).generate_many(
        n_q
    )
    arrivals = staggered_arrivals(n_q, 2.0, seed=seed)
    system = DistributedQASystem(
        SystemConfig(
            n_nodes=n_nodes,
            strategy=Strategy.DQA,
            seed=seed,
            trace=True,
            policy=TaskPolicy(
                ap_strategy=PartitioningStrategy[ap_strategy]
            ),
        )
    )
    report = system.run_workload(profiles, arrivals)
    att = attribute_workload(system.spans, system.metrics, report, system.config)
    means = att.category_means()
    return {
        "n_nodes": n_nodes,
        "selected_fraction": fraction,
        "ap_strategy": ap_strategy,
        "n_questions": n_q,
        "makespan_s": report.makespan_s,
        "mean_response_s": report.mean_response_s,
        "partition_comms_mean_s": means["partition_comms"],
        "dispatch_mean_s": means["dispatch"],
        "attribution_max_sum_error_s": att.max_sum_error(),
    }


def run_selection(config: SelectionConfig | None = None) -> dict[str, t.Any]:
    """Run both halves of the experiment."""
    config = config or SelectionConfig()
    ctx = build_context(CorpusConfig(seed=config.corpus_seed))
    workload = zipf_workload(
        ctx.questions,
        config.n_questions,
        config.n_unique,
        config.zipf_exponent,
        config.workload_seed,
    )

    def answer_all(pipeline: QAPipeline) -> list[t.Any]:
        return [pipeline.answer(text, qid=qid) for qid, text in workload]

    def fresh_stack() -> IndexedCorpus:
        return ctx.indexed.reconfigured(
            conjunction_cache=config.conjunction_cache
        )

    # -- exhaustive broadcast: the reference column + ground truth ---------
    exhaustive = QAPipeline(fresh_stack(), ctx.recognizer)
    exh_results = answer_all(exhaustive)
    exh_postings = sum(r.work[POSTINGS_SCANNED] for r in exh_results)

    # Ground truth per workload item: which collections actually
    # contribute paragraphs.
    useful_sets: list[frozenset[int]] = []
    processed_cache: dict[str, t.Any] = {}
    for qid, text in workload:
        processed = processed_cache.get(text)
        if processed is None:
            processed = exhaustive.qp.process(Question(qid=qid, text=text))
            processed_cache[text] = processed
        pr = exhaustive.pr.retrieve(processed)
        useful_sets.append(
            frozenset(
                w.collection_id for w in pr.per_collection if w.n_paragraphs
            )
        )

    # -- predictive selection ----------------------------------------------
    stack = fresh_stack()
    selector = stack.selector(
        top_k=config.predictive_top_k, threshold=config.predictive_threshold
    )
    results = answer_all(QAPipeline(stack, ctx.recognizer, selector=selector))
    selected_sets: list[frozenset[int]] = []
    prune_rates: list[float] = []
    fallbacks = 0
    for _, text in workload:
        decision = selector.select(list(processed_cache[text].keywords))
        selected_sets.append(frozenset(decision.selected))
        prune_rates.append(decision.prune_rate)
        fallbacks += decision.fallback
    agreement = sum(
        1
        for a, b in zip(exh_results, results)
        if [str(ans) for ans in a.answers] == [str(ans) for ans in b.answers]
    )
    postings = sum(r.work[POSTINGS_SCANNED] for r in results)
    runs: dict[str, dict[str, t.Any]] = {
        "exhaustive": {"postings_scanned_total": exh_postings},
        "predictive": {
            "postings_scanned_total": postings,
            "postings_scanned_reduction": (
                1.0 - postings / exh_postings if exh_postings else 0.0
            ),
            "prune_rate_mean": (
                sum(prune_rates) / len(prune_rates) if prune_rates else 0.0
            ),
        },
    }
    quality: dict[str, dict[str, t.Any]] = {
        "predictive": {
            **_mode_quality(selected_sets, useful_sets),
            "answer_agreement": agreement / len(workload),
            "fallbacks": fallbacks,
            "sketch_bytes": selector.sketch_bytes(),
        }
    }

    # -- simulated sweep: partition-comms with selection off vs on ----------
    fraction = config.sim_selected_fraction
    if fraction is None:
        fraction = round(1.0 - runs["predictive"]["prune_rate_mean"], 2)
    specs: list[tuple[int, float | None, int, int, str]] = []
    for n in config.node_counts:
        for cell_fraction in (None, fraction):
            specs.append(
                (
                    n,
                    cell_fraction,
                    config.sim_seed,
                    config.sim_questions_per_node,
                    "RECV",
                )
            )
    cells = run_cells(_sim_cell, specs, jobs=config.jobs)
    by_key = {(c["n_nodes"], c["selected_fraction"]): c for c in cells}
    sim_rows = []
    for n in config.node_counts:
        off = by_key[(n, None)]
        on = by_key[(n, fraction)]
        sim_rows.append(
            {
                "n_nodes": n,
                "off_partition_comms_mean_s": off["partition_comms_mean_s"],
                "on_partition_comms_mean_s": on["partition_comms_mean_s"],
                "partition_comms_reduction": (
                    1.0
                    - on["partition_comms_mean_s"]
                    / off["partition_comms_mean_s"]
                    if off["partition_comms_mean_s"]
                    else 0.0
                ),
                "off_mean_response_s": off["mean_response_s"],
                "on_mean_response_s": on["mean_response_s"],
            }
        )
    attribution_ok = all(
        c["attribution_max_sum_error_s"] < 1e-6 for c in cells
    )
    comms_shrinks = all(
        row["partition_comms_reduction"] > 0.0 for row in sim_rows
    )

    return {
        "config": {
            **asdict(config),
            "sim_selected_fraction_effective": fraction,
        },
        "workload": {
            "n_questions": len(workload),
            "n_unique": min(config.n_unique, len(ctx.questions)),
            "zipf_exponent": config.zipf_exponent,
        },
        "runs": runs,
        "quality": quality,
        "simulated": {
            "cells": cells,
            "rows": sim_rows,
            "comms_shrinks": comms_shrinks,
            "attribution_ok": attribution_ok,
        },
    }


def format_selection(summary: dict[str, t.Any]) -> str:
    """Human-readable report of the selection experiment."""
    wl = summary["workload"]
    lines = [
        "Federated collection selection — prune the PR fan-out",
        "=" * 53,
        f"workload: {wl['n_questions']} questions over {wl['n_unique']}"
        f" unique (Zipf s={wl['zipf_exponent']})",
        "",
    ]
    table = TextTable(
        "Selection on the real pipeline",
        ["Mode", "prune %", "postings", "reduction"],
    )
    runs = summary["runs"]
    for mode in ("exhaustive", "predictive"):
        s = runs[mode]
        table.add_row(
            mode,
            f"{s.get('prune_rate_mean', 0.0) * 100:.1f}",
            f"{s['postings_scanned_total']:,.0f}",
            f"{s.get('postings_scanned_reduction', 0.0) * 100:.1f} %",
        )
    lines.append(table.render())
    lines.append("")

    qtable = TextTable(
        "Selector quality vs exhaustive search",
        ["Mode", "precision", "recall", "answers agree", "fallbacks"],
    )
    for mode, q in summary["quality"].items():
        qtable.add_row(
            mode,
            f"{q['precision_mean']:.3f}",
            f"{q['recall_mean']:.3f}",
            f"{q['answer_agreement'] * 100:.1f} %",
            q["fallbacks"],
        )
    lines.append(qtable.render())
    lines.append("")

    stable = TextTable(
        "Simulated sweep: partition-comms attribution, selection off vs on",
        ["N", "off s", "on s", "reduction"],
    )
    for row in summary["simulated"]["rows"]:
        stable.add_row(
            row["n_nodes"],
            f"{row['off_partition_comms_mean_s']:.4f}",
            f"{row['on_partition_comms_mean_s']:.4f}",
            f"{row['partition_comms_reduction'] * 100:.1f} %",
        )
    lines.append(stable.render())
    return "\n".join(lines)
