"""Simulator event census: fired events per question by callback kind.

Wraps ``Event._run_callbacks`` from outside (nothing under ``src/`` is
instrumented) around one sub-run of the benchmark's simulator workloads::

    PYTHONPATH=src python benchmarks/sim_event_census.py --nodes 16 --seed 101
    PYTHONPATH=src python benchmarks/sim_event_census.py --nodes 4 --questions 32 --max-stale 0.05
"""

import argparse
import collections

import numpy as np

from repro.core import DistributedQASystem, PartitioningStrategy, Strategy, SystemConfig, TaskPolicy
from repro.core.monitor import auto_shard_count
from repro.simulation.engine import Process
from repro.simulation.events import Event
from repro.simulation.resources import FairShareResource
from repro.workload import staggered_arrivals, trec_mix_profiles


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--questions", type=int, default=128)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--max-stale", type=float, default=None,
                        help="exit 1 if stale wakeups exceed this share of fired events")
    args = parser.parse_args()
    counts = census(args.nodes, args.questions, args.seed)
    total = sum(counts.values())
    print(f"{args.nodes} nodes, {args.questions} questions, seed {args.seed}: "
          f"{total} events fired, {total / args.questions:.0f} per question")
    for kind, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:34s} {n / args.questions:9.1f} /q  {100 * n / total:5.1f} %")
    stale = sum(n for kind, n in counts.items() if kind.endswith("(stale)")) / total
    print(f"stale wakeups: {100 * stale:.1f} % of fired events")
    if args.max_stale is not None and stale > args.max_stale:
        print(f"FAIL: stale share above {100 * args.max_stale:.1f} %")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
