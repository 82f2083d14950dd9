"""Compare the DNS / INTER / DQA load-balancing strategies at high load.

Reproduces the paper's Section 6.1 experiment interactively: brings an
8-node cluster to the overload state (64 questions, 0-2 s stagger) under
each strategy and prints throughput, latency and migration activity —
the Tables 5/6/7 story in one run.

    python examples/load_balancing_comparison.py [n_nodes]
"""

from __future__ import annotations

import sys

from repro.core import DistributedQASystem, Strategy, SystemConfig
from repro.workload import high_load_count, run_high_load, summarize_latencies


def main(n_nodes: int = 8) -> None:
    n_questions = high_load_count(n_nodes)
    print(
        f"High-load experiment: {n_questions} mixed TREC-8/9 questions on "
        f"{n_nodes} nodes (twice the overload level)\n"
    )
    seeds = (11, 23, 37)
    baseline = None
    for strategy in (Strategy.DNS, Strategy.INTER, Strategy.DQA):
        throughputs = []
        last_report = None
        for seed in seeds:
            system = DistributedQASystem(
                SystemConfig(n_nodes=n_nodes, strategy=strategy)
            )
            last_report = run_high_load(system, seed)
            throughputs.append(last_report.throughput_qpm)
        throughput = sum(throughputs) / len(throughputs)
        if baseline is None:
            baseline = throughput
        gain = (throughput / baseline - 1.0) * 100
        assert last_report is not None
        summary = summarize_latencies(last_report)
        print(f"=== {strategy.value} ===")
        print(
            f"  throughput : {throughput:6.2f} questions/min "
            f"({gain:+.1f} % vs DNS, mean of {len(seeds)} workload seeds)"
        )
        print(f"  response   : {summary}  (last seed)")
        print(
            f"  migrations : QA {last_report.migrations_qa}, "
            f"PR {last_report.migrations_pr}, AP {last_report.migrations_ap}"
        )
        print()

    print(
        "Expected shape (paper Tables 5-6): DNS < INTER < DQA on throughput,"
        " the reverse on response times."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
