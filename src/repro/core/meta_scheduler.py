"""The meta-scheduling algorithm (Figure 4).

    metaScheduler(task, loadFunction, underloadCondition)
      1. select all processors i with underloadCondition(load_i) == true
      2. if none selected: select the processor with smallest loadFunction
      3. assign each selected processor an unnormalized weight
         w'_i = maxLoad - load_i, where maxLoad is the largest load in the
         selected set
      4. normalize: w_i = w'_i / sum_j w'_j
      5. assign each selected processor a fraction w_i of the global task

The algorithm "attempts to divide a given task into smaller granularity
sub-tasks and distribute them on the processors best fit for the task" and
"automatically determine[s] the degree of intra-parallelism available in
the current system state" — no under-loaded processors means no forced
partitioning.

The algorithm runs on the load table's columns (DESIGN.md §4): step 1 is
one mask, step 2 one ``argmin``, and steps 3-4 one ``lexsort`` on
(load, node id) and one element-wise division.

Reconstruction note (DESIGN.md §4): with the literal step-3 formula the
most-loaded selected processor always gets weight 0 and a single-processor
selection is degenerate; we add a small epsilon share so every *selected*
processor participates, and fall back to equal weights when all selected
loads are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    DISPATCH_FORCED_SINGLE,
    DISPATCH_PARTITION_WIDTH,
)
from .load import ResourceWeights, single_task_load

__all__ = ["Assignment", "meta_schedule"]

#: Extra share keeping max-loaded selected processors in the partition.
_EPSILON = 0.05


@dataclass(frozen=True, slots=True)
class Assignment:
    """Outcome of one meta-scheduling decision."""

    #: (node_id, normalized weight) pairs, weights summing to 1.
    shares: tuple[tuple[int, float], ...]
    #: True when step 2 fired (no under-loaded processor existed).
    forced_single: bool
    #: The shares' node ids and weights as two arrays, in share order,
    #: when the decision computed them (a partitioned selection): what
    #: announcing a wide assignment adds to the table in one step.
    columns: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )
    #: The shares' node ids, in share order (read several times per stage).
    node_ids: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", [nid for nid, _ in self.shares])

    @property
    def partitioned(self) -> bool:
        return len(self.shares) > 1


def meta_schedule(
    loads: np.ndarray,
    weights: ResourceWeights,
    observer: int,
    fresh: np.ndarray | None = None,
    underload_margin: float = 1.0,
    max_parts: int | None = None,
    include: int | None = None,
    stay_on: int | None = None,
    stay_threshold: float = 0.0,
    registry: MetricsRegistry | None = None,
) -> Assignment:
    """Run the Figure 4 algorithm against one observer's view of the table.

    Parameters
    ----------
    loads:
        The module's Eq 1-3 load per table row (node id), the observer's
        own row live (:meth:`MonitoringSystem.loads`).  Overwritten.
    weights:
        The module's resource weights (selects the load function).
    observer:
        The deciding node, which always sees itself.
    fresh:
        Rows in the live pool (:meth:`MonitoringSystem.fresh`), or
        ``None`` when every row is.  A stale observer's own row stays in
        the view, ordered after the fresh rows.  Overwritten.
    underload_margin:
        Scales the Eq 7/8 under-load threshold (Section 4.2 trade-off).
    max_parts:
        Optional cap on partition width (e.g. PR cannot be split wider
        than the number of sub-collections).
    include:
        Node forced into any *partitioned* selection (the task's host
        already holds the module input, so excluding it would only add
        transfer cost; its availability-based weight stays small when it
        is loaded).  Ignored when step 2 selects a single processor.
    stay_on / stay_threshold:
        Useless-migration avoidance, extended from the question
        dispatcher's rule (Section 3.1) to the embedded dispatchers: when
        step 2 would move the module off ``stay_on`` but the load
        difference does not exceed ``stay_threshold``, stay put.
    registry:
        Optional metrics registry recording each decision's outcome
        (forced-single count, partition-width histogram) under the
        canonical ``scheduler.*`` names.
    """
    n = len(loads)
    if not n:
        raise ValueError("empty load table: no live processors")
    # The Eq 7/8 threshold, and the capacity of one sub-task that steps
    # 3-4 weigh availability against.
    capacity = underload_margin * single_task_load(weights)
    stale_observer = fresh is not None and not fresh[observer]
    if fresh is not None:
        fresh[observer] = True
        loads[~fresh] = np.inf  # out of the pool: never selected

    def in_view(nid: int | None) -> bool:
        return nid is not None and 0 <= nid < n and (fresh is None or bool(fresh[nid]))

    # Step 1: all under-loaded processors.
    under = loads < capacity
    selected = under.nonzero()[0]
    if not len(selected):
        # Step 2: the least-loaded processor alone (lowest id on a tie) —
        # unless moving off the current host is not worth a sub-task's
        # own load.
        best = int(loads.argmin())
        if (
            stay_on is not None
            and best != stay_on
            and in_view(stay_on)
            and loads[stay_on] - loads[best] <= stay_threshold
        ):
            best = stay_on
        return _recorded(Assignment(((best, 1.0),), forced_single=True), registry)
    # The selection's order is table order, except that a stale
    # observer's own row comes after the fresh ones and the forced-in
    # host after both: that is the order steps 3-4 sum in.
    tail = [observer] if stale_observer and under[observer] else []
    if in_view(include) and not under[include]:
        under[include] = True
        tail.append(include)
        selected = under.nonzero()[0]

    if max_parts is not None and len(selected) > max_parts:
        # Keep the least-loaded processors within the width cap (the
        # forced-in host, holding the data, is never trimmed); the
        # selection is in that order from here on.
        order = np.lexsort((selected, loads[selected], selected != include))
        selected = selected[order[:max_parts]]
        tail = []

    if len(selected) == 1:
        return _recorded(Assignment(((int(selected[0]), 1.0),), False), registry)

    # Steps 3-4: availability-proportional weights.  Availability is
    # measured against the capacity one sub-task of this module would use
    # (margin * single-task load): a nearly idle cluster yields nearly
    # equal weights, while genuinely uneven loads yield proportionally
    # uneven shares.  (The literal `maxLoad - load_i` formula degenerates
    # when all loads are small-but-unequal — DESIGN.md §4.)
    selected_loads = loads[selected]
    raw = np.maximum(_EPSILON * capacity, capacity - selected_loads)
    total = _ordered_sum(raw.tolist(), selected, tail)
    order = np.lexsort((selected, selected_loads))
    nids, fractions = selected[order], raw[order] / total
    shares = tuple(zip(nids.tolist(), fractions.tolist()))
    return _recorded(Assignment(shares, False, (nids, fractions)), registry)


def _ordered_sum(values: list[float], selected: np.ndarray, tail: list[int]) -> float:
    """Python's ``sum`` of ``values`` (one per ``selected`` node, in the
    selection's order) with the ``tail`` nodes' values moved last, in tail
    order (``selected`` is in id order whenever ``tail`` is not empty).

    Python's ``sum`` is what the weights have always been normalised by;
    it is compensated from Python 3.12 on and NumPy's pairwise ``sum`` is
    not, so only the same builtin over the same order gives the same
    float on every supported version.
    """
    if tail:
        positions = selected.searchsorted(tail).tolist()
        moved = [values[p] for p in positions]
        for p in sorted(positions, reverse=True):
            del values[p]
        values += moved
    return sum(values)


def _recorded(assignment: Assignment, registry: MetricsRegistry | None) -> Assignment:
    if registry is not None:
        if assignment.forced_single:
            registry.inc(DISPATCH_FORCED_SINGLE)
        registry.observe(DISPATCH_PARTITION_WIDTH, float(len(assignment.shares)))
    return assignment
