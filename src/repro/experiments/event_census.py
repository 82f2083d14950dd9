"""Simulator event census: fired events per question by callback kind.

Wraps ``Event._run_callbacks`` from outside (nothing in the simulator is
instrumented) around one Section 6.1 run (:func:`run_high_load`) on the
default cluster.  Counts only, so the tables are deterministic for a
given seed.
"""

import collections
import inspect

from ..core import DistributedQASystem, SystemConfig
from ..core.monitor import ROUND_EVENT
from ..simulation.engine import Process
from ..simulation.events import Event
from ..simulation.resources import FairShareResource
from ..workload import run_high_load

__all__ = ["census", "format_census"]


def census(n_nodes: int, questions: int, seed: int) -> collections.Counter:
    """Counts per kind for ``questions`` high-load questions on ``n_nodes``."""
    counts: collections.Counter = collections.Counter()
    job_events, depth = set(), [0]
    run_callbacks, use = Event._run_callbacks, FairShareResource.use

    def counting_use(self, *args, **kwargs):
        job = use(self, *args, **kwargs)
        job_events.add(job.event)
        return job

    def kind_of(event: Event) -> tuple[str, FairShareResource | None]:
        if event.name == ROUND_EVENT:
            return ROUND_EVENT, None
        if event in job_events:
            return "completion hop " + ("(inline)" if depth[0] else "(queued)"), None
        owner = getattr((event.callbacks or [None])[0], "__self__", None)
        if isinstance(owner, FairShareResource):
            return "wakeup " + owner.name.split("[")[0], owner
        if isinstance(owner, Process):
            if inspect.getgeneratorstate(owner._generator) == inspect.GEN_CREATED:
                return "process bootstrap", None
            return "task/puller resume", None
        return "other (conditions, sentinels)", None

    def counting_run_callbacks(event: Event) -> None:
        kind, resource = kind_of(event)
        before = resource.completed_units if resource else 0.0
        depth[0] += 1
        run_callbacks(event)
        depth[0] -= 1
        if resource is not None:  # a wakeup that completed nothing is stale
            kind += " (live)" if resource.completed_units != before else " (stale)"
        counts[kind] += 1

    system = DistributedQASystem(SystemConfig(n_nodes=n_nodes, collect_metrics=False))
    Event._run_callbacks, FairShareResource.use = counting_run_callbacks, counting_use
    try:
        run_high_load(system, seed, n_questions=questions)
    finally:
        Event._run_callbacks, FairShareResource.use = run_callbacks, use
    return counts


def format_census(n_nodes: int, questions: int, seed: int, counts: collections.Counter) -> str:
    """Render one census as the per-question table."""
    total = sum(counts.values())
    lines = [
        f"{n_nodes} nodes, {questions} questions, seed {seed}: "
        f"{total} events fired, {total / questions:.0f} per question"
    ]
    for kind, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {kind:34s} {n / questions:9.1f} /q  {100 * n / total:5.1f} %")
    stale = sum(n for kind, n in counts.items() if kind.endswith("(stale)")) / total
    lines.append(f"stale wakeups: {100 * stale:.1f} % of fired events")
    return "\n".join(lines)
