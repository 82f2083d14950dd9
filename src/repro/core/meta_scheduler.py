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

Reconstruction note (DESIGN.md §4): with the literal step-3 formula the
most-loaded selected processor always gets weight 0 and a single-processor
selection is degenerate; we add a small epsilon share so every *selected*
processor participates, and fall back to equal weights when all selected
loads are equal.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    DISPATCH_FORCED_SINGLE,
    DISPATCH_PARTITION_WIDTH,
)
from .load import LoadSnapshot, ResourceWeights, load_function, single_task_load

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

    @property
    def node_ids(self) -> list[int]:
        return [nid for nid, _ in self.shares]

    @property
    def partitioned(self) -> bool:
        return len(self.shares) > 1


def meta_schedule(
    table: t.Mapping[int, LoadSnapshot],
    weights: ResourceWeights,
    underload_margin: float = 1.0,
    max_parts: int | None = None,
    include: int | None = None,
    stay_on: int | None = None,
    stay_threshold: float = 0.0,
    registry: MetricsRegistry | None = None,
) -> Assignment:
    """Run the Figure 4 algorithm against a load table.

    Parameters
    ----------
    table:
        node_id -> load snapshot (one observer's current view).
    weights:
        The module's resource weights (selects the load function).
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
    if not table:
        raise ValueError("empty load table: no live processors")

    def recorded(assignment: Assignment) -> Assignment:
        if registry is not None:
            if assignment.forced_single:
                registry.inc(DISPATCH_FORCED_SINGLE)
            registry.observe(
                DISPATCH_PARTITION_WIDTH, float(len(assignment.shares))
            )
        return assignment

    loads = {nid: load_function(weights, snap) for nid, snap in table.items()}
    # The Eq 7/8 threshold (``is_underloaded``), and the capacity of one
    # sub-task that steps 3-4 weigh availability against.
    capacity = underload_margin * single_task_load(weights)

    # Step 1: all under-loaded processors.
    selected = [nid for nid, load in loads.items() if load < capacity]
    forced_single = False
    if not selected:
        # Step 2: the least-loaded processor alone — unless moving off the
        # current host is not worth a sub-task's own load.
        _, best = min(zip(loads.values(), loads))
        if (
            stay_on is not None
            and stay_on in loads
            and best != stay_on
            and loads[stay_on] - loads[best] <= stay_threshold
        ):
            best = stay_on
        selected = [best]
        forced_single = True
    elif include is not None and include in table and include not in selected:
        selected.append(include)

    if max_parts is not None and len(selected) > max_parts:
        # Keep the least-loaded processors within the width cap (the
        # forced-in host, holding the data, is never trimmed).
        ordered = sorted(
            selected,
            key=lambda nid: (nid != include, loads[nid], nid),
        )
        selected = ordered[:max_parts]

    if len(selected) == 1:
        return recorded(
            Assignment(shares=((selected[0], 1.0),), forced_single=forced_single)
        )

    # Steps 3-4: availability-proportional weights.  Availability is
    # measured against the capacity one sub-task of this module would use
    # (margin * single-task load): a nearly idle cluster yields nearly
    # equal weights, while genuinely uneven loads yield proportionally
    # uneven shares.  (The literal `maxLoad - load_i` formula degenerates
    # when all loads are small-but-unequal — DESIGN.md §4.)
    raw = {
        nid: max(_EPSILON * capacity, capacity - loads[nid]) for nid in selected
    }
    total = sum(raw.values())
    shares = tuple(
        (nid, raw[nid] / total) for nid in sorted(selected, key=lambda n: (loads[n], n))
    )
    return recorded(Assignment(shares=shares, forced_single=forced_single))
