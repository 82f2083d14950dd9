"""Simulator event census: fired events per question by callback kind.

Wraps ``Event._run_callbacks`` from outside (nothing in the simulator is
instrumented) around one sub-run of the benchmark's simulator workloads.
Counts only, so the tables are deterministic for a given seed.
"""

import collections

import numpy as np

from ..core import DistributedQASystem, PartitioningStrategy, Strategy, SystemConfig, TaskPolicy
from ..core.monitor import auto_shard_count
from ..simulation.engine import Process
from ..simulation.events import Event
from ..simulation.resources import FairShareResource
from ..workload import staggered_arrivals, trec_mix_profiles

__all__ = ["census", "format_census"]


def census(n_nodes: int, questions: int, seed: int) -> collections.Counter:
    """Counts per kind for sub-run 0 of ``bench/sim.py``'s input recipe."""
    counts: collections.Counter = collections.Counter()
    job_events, depth = set(), [0]
    run_callbacks, use = Event._run_callbacks, FairShareResource.use

    def counting_use(self, *args, **kwargs):
        job = use(self, *args, **kwargs)
        job_events.add(job.event)
        return job

    def kind_of(event: Event) -> tuple[str, FairShareResource | None]:
        if event in job_events:
            return "completion hop " + ("(inline)" if depth[0] else "(queued)"), None
        owner = getattr((event.callbacks or [None])[0], "__self__", None)
        if isinstance(owner, FairShareResource):
            return "wakeup " + owner.name.split("[")[0], owner
        if isinstance(owner, Process):
            if type(event) is Event and owner._waiting_on is None:
                return "process bootstrap", None
            role = owner.name.split("[")[0]
            return {"load-monitor": "monitor resume", "monitor-shard": "shard publisher"}.get(
                role, "task/puller resume"
            ), None
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

    order = np.random.default_rng([seed, 0]).permutation(questions)
    profiles = trec_mix_profiles(questions, seed=0)
    system = DistributedQASystem(
        SystemConfig(
            n_nodes=n_nodes, strategy=Strategy.DQA, seed=seed * 1000,
            monitor_shards=auto_shard_count(n_nodes), collect_metrics=False,
            policy=TaskPolicy(ap_strategy=PartitioningStrategy.RECV),
        )
    )
    Event._run_callbacks, FairShareResource.use = counting_run_callbacks, counting_use
    try:
        system.run_workload([profiles[i] for i in order], staggered_arrivals(questions, 2.0, seed=0))
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
