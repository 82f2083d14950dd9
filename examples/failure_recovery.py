"""Failure recovery in action: kill a worker mid-question and watch the
partitioning recovery loops reroute its chunks (Fig 5c / Fig 6b).

    python examples/failure_recovery.py
"""

from __future__ import annotations

from repro.core import (
    DistributedQASystem,
    Strategy,
    SystemConfig,
)
from repro.observability.spans import render_trace
from repro.qa import SyntheticProfileGenerator, SyntheticProfileParams
from repro.simulation import FailureSchedule
from repro.workload import run_high_load


def single_question_demo() -> None:
    print("=" * 72)
    print("1. One complex question on 4 nodes; node N3 dies mid-answer-processing")
    print("=" * 72)
    profile = SyntheticProfileGenerator(
        SyntheticProfileParams.complex(), seed=7
    ).generate(0)

    healthy = DistributedQASystem(SystemConfig(n_nodes=4, strategy=Strategy.DQA))
    t_healthy = healthy.run_workload([profile]).results[0].response_time

    system = DistributedQASystem(
        SystemConfig(n_nodes=4, strategy=Strategy.DQA, trace=True)
    )
    system.failures.apply(FailureSchedule().kill_at(18.0, 3))
    result = system.run_workload([profile]).results[0]

    print(f"healthy response time : {t_healthy:.2f} s")
    print(f"with N3 dying at t=18 : {result.response_time:.2f} s "
          f"(failed={result.failed})")
    print("\ntrace around the failure:")
    events = [
        e for e in system.spans.instants()
        if e.name in ("ap-part", "worker-failed", "done") or 14 < e.t0 < 30
    ]
    print(render_trace(events))


def cluster_workload_demo() -> None:
    print()
    print("=" * 72)
    print("2. High-load workload with two nodes leaving and rejoining")
    print("=" * 72)
    system = DistributedQASystem(
        SystemConfig(n_nodes=8, strategy=Strategy.DQA, question_retry_budget=3)
    )
    system.failures.apply(
        FailureSchedule()
        .kill_at(60.0, 6).recover_at(240.0, 6)
        .kill_at(120.0, 7).recover_at(300.0, 7)
    )
    report = run_high_load(system, seed=11)
    print(f"questions completed : {report.n_completed}/{report.n_admitted} "
          f"(front-end resubmitted lost ones, <=3 attempts)")
    print(f"throughput          : {report.throughput_qpm:.2f} q/min")
    print(f"mean response       : {report.mean_response_s:.1f} s")


if __name__ == "__main__":
    single_question_demo()
    cluster_workload_demo()
