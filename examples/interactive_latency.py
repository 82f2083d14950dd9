"""Intra-question parallelism: how fast can one question get?

Runs a single complex question on growing cluster sizes with the three
partitioning strategies (Tables 8/11 territory), prints the module-level
breakdown, and finally shows a Figure 7-style execution trace of the
partitioned run.

    python examples/interactive_latency.py
"""

from __future__ import annotations

from repro.core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.observability.spans import render_trace
from repro.qa import SyntheticProfileGenerator, SyntheticProfileParams


def main() -> None:
    gen = SyntheticProfileGenerator(SyntheticProfileParams.complex(), seed=7)
    profile = gen.generate(0)
    print(
        f"One complex question: {profile.n_accepted} accepted paragraphs, "
        f"{profile.ap_cpu_s:.0f} s of answer-processing CPU work\n"
    )

    print("Scaling the cluster (RECV partitioning, chunk = 40 paragraphs):")
    print("procs   QP     PR     PS     PO     AP    response  speedup")
    base = None
    for n in (1, 2, 4, 8, 12, 16):
        system = DistributedQASystem(SystemConfig(n_nodes=n, strategy=Strategy.DQA))
        r = system.run_workload([profile]).results[0]
        if base is None:
            base = r.response_time
        m = r.module_times
        print(
            f"{n:5d} {m['QP']:6.2f} {m['PR']:6.2f} {m['PS']:6.2f} "
            f"{m['PO']:6.2f} {m['AP']:6.2f} {r.response_time:9.2f} "
            f"{base / r.response_time:8.2f}x"
        )

    print("\nPartitioning strategies on 8 nodes (AP module time):")
    for strategy in PartitioningStrategy:
        policy = TaskPolicy(ap_strategy=strategy)
        system = DistributedQASystem(
            SystemConfig(n_nodes=8, strategy=Strategy.DQA, policy=policy)
        )
        r = system.run_workload([profile]).results[0]
        print(f"  {strategy.value:5s}: AP = {r.module_times['AP']:6.2f} s")

    print("\nExecution trace of a 4-node RECV run (Figure 7 style):")
    system = DistributedQASystem(
        SystemConfig(n_nodes=4, strategy=Strategy.DQA, trace=True)
    )
    system.run_workload([profile])
    interesting = {
        "qp-start", "pr-dispatch", "pr-collection", "po-done",
        "ap-dispatch", "ap-part", "done",
    }
    print(render_trace([e for e in system.spans.instants() if e.name in interesting]))


if __name__ == "__main__":
    main()
