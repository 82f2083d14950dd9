"""The distributed Q/A system (Figure 2) and its workload runner.

:class:`DistributedQASystem` wires together the simulated cluster (nodes,
network, load monitoring), the scheduling machinery (question dispatcher,
meta-scheduler, partitioners) and executes question workloads under one of
the paper's three strategies:

* **DNS** — round-robin only, no migration, no partitioning (Section 6.1's
  first baseline);
* **INTER** — DNS + the question dispatcher (the "only model currently
  implemented in distributed information retrieval systems");
* **DQA** — all three scheduling points plus intra-question partitioning
  (the paper's contribution).
"""

from __future__ import annotations

import enum
import typing as t
from dataclasses import dataclass, field, replace

import numpy as np

from ..observability.metrics import MetricsRegistry
from ..observability.names import TASK_RETRIES
from ..observability.spans import SpanStream
from ..qa.profiles import QuestionProfile
from ..simulation.engine import Environment, Process
from ..simulation.events import Event
from ..simulation.failures import FailureInjector
from ..simulation.network import Network
from .dispatcher import QuestionDispatcher
from .frontend import DNSFrontend
from .monitor import MonitoringSystem
from .node import ClusterNode, NodeConfig
from .partitioning import RetryPolicy
from .qa_task import DistributedQATask, TaskPolicy, TaskResult

__all__ = ["Strategy", "SystemConfig", "DistributedQASystem", "WorkloadReport"]

#: Front-end re-admission backoff: 1 s, doubling per attempt, so a
#: cluster-wide blackout does not burn the whole retry budget at once.
_READMISSION = RetryPolicy(backoff_base_s=1.0, backoff_max_s=float("inf"))


class Strategy(enum.Enum):
    """The three load-balancing models compared in Section 6.1."""

    DNS = "DNS"
    INTER = "INTER"
    DQA = "DQA"


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Cluster + scheduling configuration."""

    n_nodes: int = 4
    strategy: Strategy = Strategy.DQA
    node: NodeConfig = field(default_factory=NodeConfig)
    #: Per-node hardware overrides for heterogeneous clusters (extension:
    #: the paper's testbed is homogeneous, but its availability-weighted
    #: meta-scheduler was designed to cope with uneven capacity).
    node_overrides: t.Mapping[int, NodeConfig] | None = None
    network_bandwidth_bps: float = 100e6  # the testbed's 100 Mbps Ethernet
    network_latency_s: float = 0.2e-3
    connection_setup_s: float = 1.5e-3
    monitor_interval_s: float = 1.0
    monitor_packet_bytes: float = 512.0
    membership_timeout_s: float = 3.0
    #: Load-monitor groups: each group's live members are written into
    #: the shared load table by one event per interval.  0 = one group at
    #: phase 0 (the paper's all-to-all broadcast); k >= 1 = k groups
    #: staggered by interval/k (``auto_shard_count`` gives ~sqrt(N)).
    #: N round writes per interval either way, plus one announcement per
    #: migrated question and per PR/AP share dispatched.
    monitor_shards: int = 0
    policy: TaskPolicy = field(default_factory=TaskPolicy)
    trace: bool = False
    #: Collect counters/histograms in the system's metrics registry.
    #: Leave on for reports and the observe pipeline; sweeps that only
    #: read the WorkloadReport can turn it off for a free speedup.
    collect_metrics: bool = True
    #: Bound on stored spans/events (None = unbounded); long chaos
    #: campaigns set this so the trace store cannot grow without limit.
    trace_max_events: int | None = None
    #: Labels the run; the simulated system itself draws no random numbers
    #: (workload randomness lives in the profiles and arrival times).
    seed: int = 0
    #: Graceful degradation: how many times a question whose hosting node
    #: died is re-admitted at the front-end before being reported lost.
    question_retry_budget: int = 0

    @property
    def queue_impl(self) -> str:
        # Read by bench/tests/test_inputs.py:83, and bench/ changes only in
        # a benchmark PR; goes when that read does.
        return "heap"

    def effective_policy(self) -> TaskPolicy:
        """Derive the task policy from the strategy."""
        if self.strategy is Strategy.DNS:
            return replace(
                self.policy,
                enable_question_dispatch=False,
                enable_pr_dispatch=False,
                enable_ap_dispatch=False,
                enable_partitioning=False,
            )
        if self.strategy is Strategy.INTER:
            return replace(
                self.policy,
                enable_question_dispatch=True,
                enable_pr_dispatch=False,
                enable_ap_dispatch=False,
                enable_partitioning=False,
            )
        return self.policy


@dataclass(slots=True)
class WorkloadReport:
    """Aggregate results of one workload run."""

    results: list[TaskResult]
    makespan_s: float
    #: Migration counts at the three scheduling points (Table 7).
    migrations_qa: int
    migrations_pr: int
    migrations_ap: int
    #: Questions handed to the front-end (defaults to ``len(results)``).
    n_admitted: int = -1
    #: Front-end re-admissions of questions whose hosting node died.
    n_retries: int = 0
    #: Admitted questions unfinished when the run stopped (0 after a
    #: completed run — the accounting invariant's third term).
    n_in_flight: int = 0
    #: Per recovered question: first host death to final completion.
    recovery_latencies_s: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_admitted < 0:
            self.n_admitted = len(self.results)

    @property
    def n_questions(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> list[TaskResult]:
        """Results of the questions that produced an answer."""
        return [r for r in self.results if not r.failed]

    @property
    def n_completed(self) -> int:
        """Questions that produced an answer."""
        return len(self.completed)

    @property
    def n_lost(self) -> int:
        """Questions lost to host failures after exhausting retries."""
        return sum(1 for r in self.results if r.failed)

    @property
    def accounted(self) -> bool:
        """No question vanished: completed + lost + in-flight == admitted."""
        return (
            self.n_completed + self.n_lost + self.n_in_flight
            == self.n_admitted
        )

    @property
    def mean_recovery_latency_s(self) -> float:
        """Mean first-host-death-to-completion time of recovered questions."""
        return _mean(self.recovery_latencies_s)

    # A lost question is neither throughput nor a response: every
    # aggregate below is over the completed questions only.
    @property
    def throughput_qpm(self) -> float:
        """Answered questions per minute (Table 5's metric)."""
        if self.makespan_s <= 0:
            return 0.0
        return 60.0 * self.n_completed / self.makespan_s

    @property
    def mean_response_s(self) -> float:
        """Average question response time (Table 6's metric)."""
        return _mean([r.response_time for r in self.completed])

    @property
    def mean_sojourn_s(self) -> float:
        """Average arrival-to-completion time (queueing included)."""
        return _mean([r.sojourn_time for r in self.completed])

    def mean_module_times(self) -> dict[str, float]:
        """Average per-module critical-path times (Table 8)."""
        done = self.completed
        return {
            k: _mean([r.module_times[k] for r in done])
            for k in ("QP", "PR", "PS", "PO", "AP")
        }


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


class DistributedQASystem:
    """A simulated cluster running the distributed Q/A service."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.env = Environment()
        #: One metrics registry per system: every subsystem records its
        #: counters/histograms here under the canonical names of
        #: :mod:`repro.observability.names`.
        self.metrics = MetricsRegistry(enabled=self.config.collect_metrics)
        #: Hierarchical span store (``config.trace`` switches it on); its
        #: zero-duration instants are the Fig 7 event stream.
        self.spans = SpanStream(
            enabled=self.config.trace,
            max_spans=self.config.trace_max_events,
        )
        self.network = Network(
            self.env,
            bandwidth_bps=self.config.network_bandwidth_bps,
            latency_s=self.config.network_latency_s,
            connection_setup_s=self.config.connection_setup_s,
        )
        overrides = self.config.node_overrides or {}
        self.nodes: dict[int, ClusterNode] = {
            i: ClusterNode(self.env, i, overrides.get(i, self.config.node))
            for i in range(self.config.n_nodes)
        }
        self.monitoring = MonitoringSystem(
            self.env,
            self.network,
            list(self.nodes.values()),
            interval_s=self.config.monitor_interval_s,
            packet_bytes=self.config.monitor_packet_bytes,
            membership_timeout_s=self.config.membership_timeout_s,
            metrics=self.metrics,
            shards=self.config.monitor_shards,
        )
        self.question_dispatcher = QuestionDispatcher(
            self.monitoring, metrics=self.metrics
        )
        self.frontend = DNSFrontend(self.config.n_nodes, metrics=self.metrics)
        self.policy = self.config.effective_policy()
        self.failures = FailureInjector(
            self.env,
            set_node_up=self._set_node_up,
            on_transition=None,
        )
        #: The report from the most recent run_workload call.
        self.last_report: WorkloadReport | None = None

    # -- failure plumbing ---------------------------------------------------------
    def _set_node_up(self, node_id: object, up: bool) -> None:
        self.network.set_node_up(node_id, up)
        node = self.nodes[t.cast(int, node_id)]
        node.up = up
        if not up:
            node.fail_admission_waiters()

    # -- submission -----------------------------------------------------------------
    def submit(
        self,
        profile: QuestionProfile,
        entry_node: int | None = None,
    ) -> Process:
        """Start one Q/A task now; returns its process (value: TaskResult)."""
        nid = self.frontend.assign() if entry_node is None else entry_node
        task = DistributedQATask(self, profile, nid, self.policy)
        return self.env.process(task.run(), name=f"qa-task[{profile.qid}]")

    # -- workload execution ------------------------------------------------------------
    def run_workload(
        self,
        profiles: t.Sequence[QuestionProfile],
        arrival_times: t.Sequence[float] | None = None,
    ) -> WorkloadReport:
        """Run a batch of questions to completion and report metrics.

        ``arrival_times`` defaults to all-at-zero.  The simulation runs
        until every submitted task finishes (load monitors keep running
        forever, so we run until the last task's completion event).

        A question whose hosting node died is re-admitted up to the
        config's ``question_retry_budget`` times (the front-end retrying
        against another address, with exponential backoff); the final
        attempt's result is reported.  Every admitted question is
        accounted for: it ends up completed or lost, never silently
        dropped.
        """
        if arrival_times is None:
            arrival_times = [0.0] * len(profiles)
        if len(arrival_times) != len(profiles):
            raise ValueError("arrival_times length must match profiles")

        done: list[TaskResult] = []
        retries = 0
        recovery_latencies: list[float] = []
        finished = self.env.event(name="workload-finished")
        remaining = len(profiles)
        if remaining == 0:
            self.last_report = WorkloadReport([], 0.0, 0, 0, 0)
            return self.last_report

        def tracked(profile: QuestionProfile, when: float):
            def body() -> t.Generator[Event, object, None]:
                nonlocal remaining, retries
                if when > self.env.now:
                    yield self.env.timeout(when - self.env.now)
                result = yield self.submit(profile)
                attempts = 0
                first_failure_at: float | None = None
                while (
                    t.cast(TaskResult, result).failed
                    and attempts < self.config.question_retry_budget
                ):
                    if first_failure_at is None:
                        first_failure_at = self.env.now
                    attempts += 1
                    retries += 1
                    self.metrics.inc(TASK_RETRIES)
                    yield self.env.timeout(_READMISSION.delay(attempts - 1))
                    # Retry against the next live node (skip dead ones).
                    entry = None
                    for _ in range(self.config.n_nodes):
                        candidate = self.frontend.assign()
                        if self.nodes[candidate].up:
                            entry = candidate
                            break
                    result = yield self.submit(profile, entry_node=entry)
                final = t.cast(TaskResult, result)
                if first_failure_at is not None and not final.failed:
                    recovery_latencies.append(self.env.now - first_failure_at)
                done.append(final)
                remaining -= 1
                if remaining == 0:
                    finished.succeed()

            return body()

        for profile, when in zip(profiles, arrival_times):
            self.env.process(tracked(profile, when), name=f"track[{profile.qid}]")
        self.env.run(until=finished)

        first_arrival = min(arrival_times)
        makespan = self.env.now - first_arrival
        self.last_report = WorkloadReport(
            results=sorted(done, key=lambda r: r.qid),
            makespan_s=makespan,
            migrations_qa=sum(1 for r in done if r.migrated_qa),
            migrations_pr=sum(1 for r in done if r.migrated_pr),
            migrations_ap=sum(1 for r in done if r.migrated_ap),
            n_admitted=len(profiles),
            n_retries=retries,
            recovery_latencies_s=recovery_latencies,
        )
        return self.last_report
