"""Golden runs: the simulator's numbers, frozen as digests.

ROADMAP's rule for kernel changes is one code path checked against frozen
outputs, not a legacy path kept beside the new one.  Each case below is a
seeded ``run_workload`` whose every simulated number — makespan,
migrations, each question's response time, bytes on the wire, monitor
rounds, the membership log — is hashed into one sha256.  The digests were
recorded on the commit *before* PR 15 reworked the fair-share kernel (lazy
timers, inline completions); a host-only optimisation must reproduce all
of them.

To re-record after a change that is *meant* to move simulated numbers::

    PYTHONPATH=src python tests/simulation/test_golden_runs.py
"""

import hashlib
import struct

import pytest

from repro.core import (
    DistributedQASystem,
    NodeConfig,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.core.monitor import auto_shard_count
from repro.simulation.chaos import ChaosConfig, generate_chaos_schedule
from repro.workload import staggered_arrivals, trec_mix_profiles


def _cluster16(ap: str, shards: int):
    config = SystemConfig(
        n_nodes=16,
        strategy=Strategy.DQA,
        seed=1500,
        monitor_shards=shards,
        policy=TaskPolicy(ap_strategy=PartitioningStrategy[ap]),
        collect_metrics=False,
    )
    return config, 48, None


def _failure4():
    """A seeded chaos schedule plus one kill placed mid-question."""
    config = SystemConfig(
        n_nodes=4,
        strategy=Strategy.DQA,
        seed=15,
        monitor_shards=auto_shard_count(4),
        policy=TaskPolicy(ap_strategy=PartitioningStrategy.RECV),
        question_retry_budget=2,
        collect_metrics=False,
    )
    schedule = generate_chaos_schedule(
        ChaosConfig(seed=15, horizon_s=300.0, crash_rate=1 / 150.0, min_live_nodes=2),
        n_nodes=4,
    ).kill_at(16.0, 3).recover_at(90.0, 3)
    return config, 12, schedule


def _overcommit8():
    """128 MB nodes: three admitted questions overcommit memory, so the
    thrash model's ``cpu.set_capacity`` changes the rate under running jobs."""
    config = SystemConfig(
        n_nodes=8,
        strategy=Strategy.DQA,
        seed=51,
        node=NodeConfig(memory_bytes=128e6),
        monitor_shards=auto_shard_count(8),
        policy=TaskPolicy(ap_strategy=PartitioningStrategy.ISEND),
        collect_metrics=False,
    )
    return config, 40, None


CASES = {
    "dqa16-SEND-sharded": lambda: _cluster16("SEND", auto_shard_count(16)),
    "dqa16-ISEND-sharded": lambda: _cluster16("ISEND", auto_shard_count(16)),
    "dqa16-RECV-sharded": lambda: _cluster16("RECV", auto_shard_count(16)),
    "dqa16-SEND-broadcast": lambda: _cluster16("SEND", 0),
    "dqa16-ISEND-broadcast": lambda: _cluster16("ISEND", 0),
    "dqa16-RECV-broadcast": lambda: _cluster16("RECV", 0),
    "failure4-RECV": _failure4,
    "overcommit8-ISEND": _overcommit8,
}

#: Recorded on the parent of PR 15 (commit 934bf60).
GOLDEN = {
    "dqa16-SEND-sharded": "370a5316c57ea868b0f9ef969838485492129ba245c5caf21b1f16a6619073d7",
    "dqa16-ISEND-sharded": "1dfdf1799775a1e422f2c4c2b31b84a50a3df3bd7ff06af6fd3e2a997672b62b",
    "dqa16-RECV-sharded": "11deb5e03f42cae34365661daedcd0977e5ae240fcd81eaadb9fc261045a54b8",
    "dqa16-SEND-broadcast": "6fa8c1d62d87fe362cbd0717dfb9ec06889116b68fe6fb77e00157f98bd7bef9",
    "dqa16-ISEND-broadcast": "6c89d265402fe631792d6aa6fd6696749c51091b9d2c05f082d81215a4e4eb8d",
    "dqa16-RECV-broadcast": "9e69910b8a4003ebd98a4909a9dfeaf66489ffe9745629b64656eaff03d1b816",
    "failure4-RECV": "53bcf2ef7be14135a0dff9bffa6b6e326af533602909309cdb3d66e1e4d57529",
    "overcommit8-ISEND": "a1eacab21c297c4c4d0c56791505032180c08887dbb8a18387136dc68fc8c093",
}


def run_digest(case: str) -> str:
    config, n_questions, schedule = CASES[case]()
    system = DistributedQASystem(config)
    if schedule is not None:
        system.failures.apply(schedule)
    report = system.run_workload(
        trec_mix_profiles(n_questions, seed=config.seed),
        staggered_arrivals(n_questions, 2.0, seed=config.seed),
    )
    assert report.accounted
    h = hashlib.sha256()

    def floats(*values: float) -> None:
        h.update(struct.pack(f"<{len(values)}d", *values))

    floats(report.makespan_s)
    h.update(
        repr(
            (report.migrations_qa, report.migrations_pr, report.migrations_ap)
        ).encode()
    )
    floats(*(r.response_time for r in report.results))
    floats(system.network.bytes_transferred)
    h.update(repr(sum(m.broadcasts for m in system.monitoring.monitors)).encode())
    for when, nid, live in system.monitoring.membership_log:
        floats(when)
        h.update(repr((nid, live)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_run(case):
    assert run_digest(case) == GOLDEN[case]


def test_overcommit_case_changes_cpu_capacity():
    """The case exists to cover ``set_capacity`` under running jobs."""
    config, n_questions, _ = CASES["overcommit8-ISEND"]()
    system = DistributedQASystem(config)
    seen = set()
    for node in system.nodes.values():
        original = node.cpu.set_capacity

        def spy(capacity, node=node, original=original):
            if node.cpu.n_active:
                seen.add(capacity)
            original(capacity)

        node.cpu.set_capacity = spy
    system.run_workload(
        trec_mix_profiles(n_questions, seed=config.seed),
        staggered_arrivals(n_questions, 2.0, seed=config.seed),
    )
    assert len(seen) > 1


def test_failure_case_kills_a_node_mid_question():
    config, n_questions, schedule = CASES["failure4-RECV"]()
    system = DistributedQASystem(config)
    system.failures.apply(schedule)
    report = system.run_workload(
        trec_mix_profiles(n_questions, seed=config.seed),
        staggered_arrivals(n_questions, 2.0, seed=config.seed),
    )
    assert report.n_retries + report.n_lost > 0 or any(
        r.overhead.get("recovery", 0.0) > 0 for r in report.results
    )
    assert any(not live for _, _, live in system.monitoring.membership_log)


if __name__ == "__main__":
    for name in CASES:
        print(f'    "{name}": "{run_digest(name)}",')
