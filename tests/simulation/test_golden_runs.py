"""Golden runs: the simulator's numbers, frozen as digests.

ROADMAP's rule for kernel changes is one code path checked against frozen
outputs, not a legacy path kept beside the new one.  Each case below is a
seeded Section 6.1 run (``run_high_load``) whose every simulated number —
makespan, migrations, each question's response time, bytes on the wire,
monitor rounds, the membership log — is hashed into one sha256.  The
digests were recorded when the load monitor became one charged plane
(Eq 14 as a standing reservation, one table write per group and
interval); a host-only optimisation must reproduce all of them.

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
from repro.workload import run_high_load


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


def _scale128():
    """128 nodes, ~sqrt(N) monitor groups, RECV: questions split into fewer
    PR/AP chunks than there are selected nodes, so idle pullers would start."""
    config = SystemConfig(
        n_nodes=128,
        strategy=Strategy.DQA,
        seed=128,
        monitor_shards=auto_shard_count(128),
        policy=TaskPolicy(ap_strategy=PartitioningStrategy.RECV),
        collect_metrics=False,
    )
    return config, 96, None


def _scale256():
    """256 nodes, ~sqrt(N) monitor groups, RECV: AP's meta-scheduler
    selects almost every node, so a decision's wide-selection path (many
    shares, one announcement each) runs on every question."""
    config = SystemConfig(
        n_nodes=256,
        strategy=Strategy.DQA,
        seed=256,
        monitor_shards=auto_shard_count(256),
        policy=TaskPolicy(ap_strategy=PartitioningStrategy.RECV),
        collect_metrics=False,
    )
    return config, 128, None


CASES = {
    "dqa16-SEND-sharded": lambda: _cluster16("SEND", auto_shard_count(16)),
    "dqa16-ISEND-sharded": lambda: _cluster16("ISEND", auto_shard_count(16)),
    "dqa16-RECV-sharded": lambda: _cluster16("RECV", auto_shard_count(16)),
    "dqa16-SEND-broadcast": lambda: _cluster16("SEND", 0),
    "dqa16-ISEND-broadcast": lambda: _cluster16("ISEND", 0),
    "dqa16-RECV-broadcast": lambda: _cluster16("RECV", 0),
    "failure4-RECV": _failure4,
    "overcommit8-ISEND": _overcommit8,
    "scale128-RECV-sharded": _scale128,
    "scale256-RECV-sharded": _scale256,
}

#: Recorded with the charged monitor plane and announced dispatch bumps.
GOLDEN = {
    "dqa16-SEND-sharded": "4261ad4319f03dc7aab911dc383cb4de991852347a3544b91a388e2bd21cca33",
    "dqa16-ISEND-sharded": "251c62dff41af2f90e781cfa2b359fe13fbd08db07ae9f28cc41e31654930a9e",
    "dqa16-RECV-sharded": "06e4af50c2949749d6ca0686e248bd4619843837250772c4e9c51bc7dd355036",
    "dqa16-SEND-broadcast": "7b3a1a6ffcb1c06b6b1d46738be719060c4060a7bc977d8d924bdcd4ddad4590",
    "dqa16-ISEND-broadcast": "fdfb076a78ccf7e21411169db9641df1031b0223ab10318e10abcffc524328f4",
    "dqa16-RECV-broadcast": "1a1ff31a675bcf4c43a123f1e895d1904b7d20638fa7d4182ca9c6d1732f20f0",
    "failure4-RECV": "75ce9a1176cde7a2c15cda93316daf39212371b3902401bab3687215700902ba",
    "overcommit8-ISEND": "32127b8af657f47f565f3ff8dfccd7476db55aafd0de52af5886037448dc67e4",
    "scale128-RECV-sharded": "b64da58a532a52572867c2664ec6df46e51ea8cc82689305fe07caea4bdb6618",
    "scale256-RECV-sharded": "0d63679255447794ac27de694a8d19ab34f92f095b16a1375fe190b9bc034603",
}


def run_digest(case: str) -> str:
    config, n_questions, schedule = CASES[case]()
    system = DistributedQASystem(config)
    if schedule is not None:
        system.failures.apply(schedule)
    report = run_high_load(system, config.seed, n_questions)
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
    h.update(repr(system.monitoring.rounds).encode())
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
    run_high_load(system, config.seed, n_questions)
    assert len(seen) > 1


def test_failure_case_kills_a_node_mid_question():
    config, n_questions, schedule = CASES["failure4-RECV"]()
    system = DistributedQASystem(config)
    system.failures.apply(schedule)
    report = run_high_load(system, config.seed, n_questions)
    assert report.n_retries + report.n_lost > 0 or any(
        r.overhead.get("recovery", 0.0) > 0 for r in report.results
    )
    assert any(not live for _, _, live in system.monitoring.membership_log)


if __name__ == "__main__":
    for name in CASES:
        print(f'    "{name}": "{run_digest(name)}",')
