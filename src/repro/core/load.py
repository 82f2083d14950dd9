"""Load functions and under-load conditions (Eq 1-3, 7-8; Table 3).

Every scheduling decision in the paper reduces to comparing *load
function* values:

    load_m(i) = w_cpu(m) * cpuLoad(i) + w_disk(m) * diskLoad(i)      (Eq 1-3)

where the weights are the fraction of module ``m``'s execution time spent
on each resource (Table 3: QA 0.79/0.21, PR 0.20/0.80, AP 1.00/0.00), and
``cpuLoad``/``diskLoad`` are the time-averaged numbers of active jobs on
the node's CPU and disk (Unix load-average style, so values exceed 1 under
queueing).

The under-load condition (Eq 7-8) declares node ``i`` under-loaded for
module ``m`` when ``load_m(i)`` is below the load that a *single* m
sub-task running alone would produce.  A lone sub-task of module ``m``
keeps the CPU busy a fraction ``w_cpu(m)`` of the time and the disk
``w_disk(m)``, so that threshold has the closed form
``w_cpu^2 + w_disk^2`` — e.g. 0.2^2 + 0.8^2 = 0.68 for PR.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ResourceWeights",
    "QA_WEIGHTS",
    "PR_WEIGHTS",
    "AP_WEIGHTS",
    "LoadSnapshot",
    "load_function",
    "single_task_load",
]


@dataclass(frozen=True, slots=True)
class ResourceWeights:
    """CPU/disk significance weights for one module (one Table 3 row)."""

    cpu: float
    disk: float

    def __post_init__(self) -> None:
        if self.cpu < 0 or self.disk < 0:
            raise ValueError("weights must be non-negative")
        total = self.cpu + self.disk
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")


#: Table 3, measured for the TREC-9 question set.
QA_WEIGHTS = ResourceWeights(cpu=0.79, disk=0.21)
PR_WEIGHTS = ResourceWeights(cpu=0.20, disk=0.80)
AP_WEIGHTS = ResourceWeights(cpu=1.00, disk=0.00)


@dataclass(frozen=True, slots=True)
class LoadSnapshot:
    """One node's load report, as carried by the monitoring broadcast."""

    node_id: int
    cpu_load: float
    disk_load: float
    #: Number of Q/A tasks currently hosted (running + queued).
    n_questions: int
    timestamp: float
    #: Hosted questions waiting for an execution slot.  On the real system
    #: these would be runnable processes counted by the Unix load average;
    #: under admission control they must be reported explicitly.
    n_waiting: int = 0


def load_function(weights: ResourceWeights, snapshot: LoadSnapshot) -> float:
    """Eq 1/2/3: the weighted resource load of a node for a module.

    Queued (admitted-but-waiting) questions contribute one average-question
    load each — they are work the node has committed to, exactly as
    runnable processes inflate a Unix load average.
    """
    measured = weights.cpu * snapshot.cpu_load + weights.disk * snapshot.disk_load
    # An average question spends 79 % of its time on CPU and 21 % on disk
    # (Table 3's QA row), so each waiting question will add that much to
    # the node's resource occupancy once admitted.
    queued = snapshot.n_waiting * (weights.cpu * 0.79 + weights.disk * 0.21)
    return measured + queued


def single_task_load(weights: ResourceWeights) -> float:
    """The load one lone sub-task of this module produces (Eq 7/8 threshold).

    Running alone, the sub-task occupies the CPU a fraction ``w_cpu`` of
    the time (contributing ``w_cpu`` to the average cpu job count) and the
    disk ``w_disk`` — the load function of that state is
    ``w_cpu^2 + w_disk^2``.
    """
    return weights.cpu**2 + weights.disk**2


def is_underloaded(
    weights: ResourceWeights,
    snapshot: LoadSnapshot,
    margin: float = 1.0,
) -> bool:
    """Eq 7/8: under-load test with an optional tuning ``margin``.

    ``margin`` scales the single-task threshold; the paper notes the
    conditions "can be set either to minimize the question response time
    [larger margin: partition more eagerly], or to maximize the throughput
    [smaller margin]" (Section 4.2).
    """
    return load_function(weights, snapshot) < margin * single_task_load(weights)
