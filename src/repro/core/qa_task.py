"""The distributed Q/A task (Figure 3).

Executes one :class:`~repro.qa.profiles.QuestionProfile` on the simulated
cluster, driving the full low-level architecture:

    QP -> [PR dispatcher] -> PR(1..k) -> PS(1..k) -> paragraph merging
       -> PO -> [AP dispatcher] -> AP(1..n) -> answer merging -> sorting

with three scheduling points (question dispatcher handled by the system
before the task starts; PR and AP dispatchers embedded here), the three
partitioning strategies, failure recovery, and full per-module /
per-overhead-component accounting (Tables 8 and 9).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..observability.names import (
    NODE_QUEUE_WAIT_S,
    PARTITION_CHUNKS,
)
from ..observability.spans import Span, SpanCategory
from ..qa.profiles import CollectionProfile, ParagraphProfile, QuestionProfile
from ..simulation.events import Event
from ..simulation.network import TransferFailed
from .load import AP_WEIGHTS, PR_WEIGHTS, single_task_load
from .node import NodeDown
from .meta_scheduler import Assignment, meta_schedule
from .partitioning import (
    PartitionAbort,
    PartitioningStrategy,
    RetryPolicy,
    WorkerFailed,
    run_receiver_controlled,
    run_sender_controlled,
)

if t.TYPE_CHECKING:  # pragma: no cover
    from .system import DistributedQASystem

__all__ = ["TaskPolicy", "TaskResult", "DistributedQATask"]

#: Stage span, dispatch span and Fig 7 instant of the two partitioned stages.
_STAGE_NAMES = {
    "PR": ("stage:PR", "dispatch:pr", "pr-dispatch"),
    "AP": ("stage:AP", "dispatch:ap", "ap-dispatch"),
}


@dataclass(frozen=True, slots=True)
class TaskPolicy:
    """Scheduling policy knobs for one task (usually system-wide).

    ``enable_*`` flags decompose the DNS / INTER / DQA strategies and
    support the ablation experiments.
    """

    enable_question_dispatch: bool = True
    enable_pr_dispatch: bool = True
    enable_ap_dispatch: bool = True
    enable_partitioning: bool = True
    pr_strategy: PartitioningStrategy = PartitioningStrategy.RECV
    ap_strategy: PartitioningStrategy = PartitioningStrategy.RECV
    #: RECV chunk sizes: PR chunks are sub-collections; AP chunks are
    #: paragraphs (Fig 10's empirical optimum is ~40).
    pr_chunk_collections: int = 1
    ap_chunk_paragraphs: int = 40
    #: Under-load margins slightly above 1.0 tolerate the measurement
    #: artifact where a node's last monitoring window catches the CPU tail
    #: of its previous sub-task (Section 4.2 calls these empirical).
    pr_underload_margin: float = 1.1
    ap_underload_margin: float = 1.1
    #: Fixed per-chunk/partition AP cost: each AP replica must extract and
    #: rank its local n_a answers ("a constant number of answers must be
    #: extracted from each chunk", Section 4.1.2).
    ap_per_partition_cpu_s: float = 0.18
    #: Memory a remote PR sub-task needs (index buffers).
    pr_subtask_memory_bytes: float = 8e6
    #: Fraction of a question's memory that is host-side state; the rest
    #: is the paragraph working set held by whichever node(s) execute AP.
    host_memory_fraction: float = 0.5
    #: Bounded-retry/backoff policy for the distribution loops' failure
    #: recovery.  The default (unbounded, no backoff) is the paper's
    #: behaviour; chaos campaigns bound it so flapping clusters converge.
    distribution_retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: CPU seconds a dispatcher spends per load-table entry it scans
    #: (Eq 15's ``t_dispatch``).  The paper-faithful default of 0 keeps
    #: dispatch decisions instantaneous; ``repro observe`` sets it to the
    #: model's ~1e-5 s so measured dispatch cost is comparable to Eq 15.
    dispatch_scan_cpu_s: float = 0.0


@dataclass(slots=True)
class TaskResult:
    """Everything measured about one executed question."""

    qid: int
    arrival_time: float
    start_time: float = 0.0
    end_time: float = 0.0
    entry_node: int = -1
    host_node: int = -1
    #: Critical-path compute seconds per module (Table 8 semantics).
    module_times: dict[str, float] = field(
        default_factory=lambda: {"QP": 0.0, "PR": 0.0, "PS": 0.0, "PO": 0.0, "AP": 0.0}
    )
    #: Distribution overhead per component (Table 9 semantics).
    overhead: dict[str, float] = field(
        default_factory=lambda: {
            "keyword_send": 0.0,
            "paragraph_recv": 0.0,
            "paragraph_send": 0.0,
            "answer_recv": 0.0,
            "answer_sort": 0.0,
        }
    )
    migrated_qa: bool = False
    migrated_pr: bool = False
    migrated_ap: bool = False
    pr_partition_width: int = 1
    ap_partition_width: int = 1
    #: True when the hosting node died mid-task (the task state is lost;
    #: the paper's recovery covers worker failures, not host failures).
    failed: bool = False

    @property
    def response_time(self) -> float:
        """Execution latency: admission to completion (Table 6's metric).

        The paper's response times (111-144 s under a load of 8
        questions/node) can only be execution latencies — queueing delay
        is reported through throughput/makespan instead.
        """
        return self.end_time - self.start_time

    @property
    def sojourn_time(self) -> float:
        """Arrival (DNS assignment) to completion, including queueing."""
        return self.end_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.arrival_time

    @property
    def total_overhead(self) -> float:
        return sum(self.overhead.values())


class DistributedQATask:
    """One question's journey through the distributed system."""

    def __init__(
        self,
        system: "DistributedQASystem",
        profile: QuestionProfile,
        entry_node: int,
        policy: TaskPolicy,
    ) -> None:
        self.system = system
        self.profile = profile
        self.policy = policy
        self.result = TaskResult(
            qid=profile.qid,
            arrival_time=system.env.now,
            entry_node=entry_node,
        )
        self.host = entry_node
        #: Paragraph bytes produced per PR worker (drives host-side merging).
        self._pr_remote_bytes: dict[int, float] = {}
        #: The system's span store (its instants are the Fig 7 event
        #: stream).  ``_root`` is the per-question root span,
        #: ``_stage`` the currently open partition-stage span that chunk
        #: executors and transfers attach to.
        self._spans = system.spans
        self._root: Span | None = None
        self._stage: Span | None = None

    # -- helpers ----------------------------------------------------------------
    def _node(self, nid: int):
        return self.system.nodes[nid]

    def _enqueue(self, nid: int) -> t.Generator[Event, object, None]:
        """Queue at ``nid`` until admitted; ``self.host`` is then ``nid``.

        Raises :class:`NodeDown` if the node dies while the task waits.
        """
        env = self.system.env
        t_enter = env.now
        span = self._span("queue", SpanCategory.QUEUE, nid)
        node = self._node(nid)
        node.active_questions += 1
        try:
            yield node.admit_question()
        except NodeDown:
            node.active_questions -= 1
            raise
        finally:
            self._spans.end(span, env.now, node=nid)
        self.host = nid
        self.system.metrics.observe(NODE_QUEUE_WAIT_S, env.now - t_enter)

    def _abandon(self, reason: str) -> TaskResult:
        """Mark the task lost before it ever started executing."""
        now = self.system.env.now
        self.result.failed = True
        self.result.start_time = now
        self.result.end_time = now
        self._trace(self.host, "task-lost", reason)
        return self.result

    def _trace(self, nid: int, kind: str, fmt: str = "", *args: object) -> None:
        """Fig 7 instant with %-style lazy detail formatting.

        The detail string is only built when tracing is enabled, so the
        disabled hot path allocates nothing.
        """
        spans = self._spans
        if spans.enabled:
            spans.instant(
                kind,
                self.profile.qid,
                nid,
                self.system.env.now,
                fmt % args if args else fmt,
            )

    def _span(
        self,
        name: str,
        category: str,
        nid: int,
        parent: Span | None = None,
        fmt: str = "",
        *args: object,
    ) -> Span | None:
        """Open a span of this question on ``nid`` at the current instant.

        ``parent`` defaults to the question root.  Like :meth:`_trace`,
        the detail is %-formatted only when spans are enabled.
        """
        spans = self._spans
        if not spans.enabled:
            return None
        return spans.begin(
            name,
            category,
            self.profile.qid,
            nid,
            self.system.env.now,
            parent=parent if parent is not None else self._root,
            detail=fmt % args if args else fmt,
        )

    def _transfer(
        self, src: int, dst: int, nbytes: float, category: str,
        new_connection: bool = False,
        parent: Span | None = None,
    ) -> t.Generator[Event, object, None]:
        """Network transfer with overhead accounting (skipped when local)."""
        if src == dst or nbytes <= 0:
            return
        # Guard before building the f-string label: transfers are a hot
        # path and the disabled trace must not allocate.
        span = self._span(
            f"xfer:{category}", SpanCategory.COMMS, src, parent,
            "N%d -> N%d", src, dst,
        ) if self._spans.enabled else None
        elapsed = yield from self.system.network.transfer(
            src, dst, nbytes, new_connection=new_connection
        )
        self._spans.end(span, self.system.env.now, bytes=nbytes)
        self.result.overhead[category] += t.cast(float, elapsed)

    # -- main task body -------------------------------------------------------------
    def run(self) -> t.Generator[Event, object, TaskResult]:
        self._root = self._span("question", SpanCategory.TASK, self.host)
        try:
            return (yield from self._run_traced())
        finally:
            self._spans.end(
                self._root,
                self.system.env.now,
                host=self.host,
                failed=self.result.failed,
            )

    def _run_traced(self) -> t.Generator[Event, object, TaskResult]:
        """The task body proper (wrapped by ``run``'s root span)."""
        env = self.system.env
        profile = self.profile
        result = self.result

        # ---- queue at the DNS-assigned node: the node's Q/A service runs
        # a bounded number of questions concurrently; the rest wait
        # (Section 6.1's full-load notion: 4 simultaneous questions).
        try:
            yield from self._enqueue(self.host)
        except NodeDown:
            return self._abandon("entry node died while queued")

        # ---- question dispatcher (scheduling point 1): runs "before the
        # Q/A task is started" — i.e. when the question leaves the queue.
        # If the DNS-allocated node is over-loaded relative to a peer, the
        # task migrates (and queues there if needed).
        if self.policy.enable_question_dispatch:
            try:
                yield from self._dispatch_question()
            except NodeDown:
                return self._abandon("migration target died while queued")
        result.host_node = self.host
        host_node = self._node(self.host)
        result.start_time = env.now

        # ---- host-side task state lives here for the task's duration; the
        # paragraph working set is charged to whoever executes AP.
        host_mem = profile.memory_bytes * self.policy.host_memory_fraction
        host_node.memory.allocate(host_mem)
        try:
            yield from self._run_stages()
        except (WorkerFailed, PartitionAbort):
            # The host itself died: task state is lost.  The front-end
            # would surface an error to the user; the workload records it
            # as a failed question.
            result.failed = True
            self._trace(self.host, "task-lost", "host failed")
        finally:
            host_node.active_questions -= 1
            host_node.release_question()
            host_node.memory.release(host_mem)
        result.end_time = env.now
        if not result.failed:
            self._trace(self.host, "done", "%.2fs", result.response_time)
        return result

    def _dispatch_question(self) -> t.Generator[Event, object, None]:
        """Scheduling point 1 with bounded retry + exponential backoff.

        The migration hand-off can fail mid-transfer when the chosen
        target died after the last load broadcast.  Rather than losing
        the question, the dispatcher backs off and retries against the
        next-best candidate, up to its attempt budget; once the budget is
        exhausted the question stays home.
        """
        env = self.system.env
        dispatcher = self.system.question_dispatcher
        span = self._span("dispatch:qa", SpanCategory.DISPATCH, self.host)
        yield from self._dispatch_scan_cost()
        dead: set[int] = set()
        for attempt in range(dispatcher.max_attempts):
            target = dispatcher.choose(self.host, exclude=dead)
            if target == self.host:
                self._spans.end(span, env.now)
                return
            mspan = self._span(
                "migrate:qa", SpanCategory.MIGRATION, self.host, span,
                "-> N%d", target,
            )
            try:
                yield from self.system.network.transfer(
                    self.host, target, self.profile.question_bytes
                )
            except TransferFailed:
                dispatcher.note_migration_failure()
                dead.add(target)
                self._trace(self.host, "qa-migrate-failed", "-> N%d", target)
                delay = dispatcher.backoff_delay(attempt)
                if delay > 0:
                    yield env.timeout(delay)
                # The migration span covers the failed hand-off plus its
                # backoff — the measurable cost of the retry.
                self._spans.end(mspan, env.now, failed=True)
                continue
            self._spans.end(mspan, env.now)
            self._trace(self.host, "qa-migrate", "-> N%d", target)
            self.result.migrated_qa = True
            source = self._node(self.host)
            source.active_questions -= 1
            source.release_question()
            # End the dispatch span before queueing at the target: the
            # wait there is queueing, not dispatch (the queue span is a
            # sibling under the question root).
            self._spans.end(span, env.now, migrated=True)
            yield from self._enqueue(target)
            return
        self._spans.end(span, env.now, exhausted=True)

    def _dispatch_scan_cost(self) -> t.Generator[Event, object, None]:
        """Charge the host the Eq 15 load-table scan cost (if modelled)."""
        cost = self.policy.dispatch_scan_cpu_s
        if cost > 0:
            yield from self._node(self.host).run_cpu(
                cost * self.system.config.n_nodes
            )

    def _run_stages(self) -> t.Generator[Event, object, None]:
        profile = self.profile
        result = self.result
        host_node = self._node(self.host)

        # ---- QP -------------------------------------------------------------------
        t0 = self.system.env.now
        self._trace(self.host, "qp-start")
        span = self._span("QP", SpanCategory.COMPUTE, self.host)
        yield from host_node.run_cpu(profile.qp_cpu_s)
        self._spans.end(span, self.system.env.now)
        result.module_times["QP"] = self.system.env.now - t0

        # ---- PR + PS (scheduling point 2) ----------------------------------------
        yield from self._run_pr_stage()

        # ---- PO --------------------------------------------------------------------
        t0 = self.system.env.now
        span = self._span("PO", SpanCategory.COMPUTE, self.host)
        yield from host_node.run_cpu(profile.po_cpu_s)
        self._spans.end(span, self.system.env.now)
        result.module_times["PO"] = self.system.env.now - t0
        self._trace(self.host, "po-done", "%d accepted", profile.n_accepted)

        # ---- AP (scheduling point 3) ------------------------------------------------
        yield from self._run_ap_stage()

        # ---- answer sorting ---------------------------------------------------------
        t0 = self.system.env.now
        span = self._span("sort:answers", SpanCategory.COMPUTE, self.host)
        sort_cpu = 2e-4 * profile.n_answers * max(1, result.ap_partition_width)
        yield from host_node.run_cpu(sort_cpu)
        self._spans.end(span, self.system.env.now)
        result.overhead["answer_sort"] += self.system.env.now - t0

    # -- PR stage -----------------------------------------------------------------------
    def _select_collections(
        self,
    ) -> t.Generator[Event, object, list[CollectionProfile]]:
        """Mediator routing before the PR fan-out (collection selection).

        A profile with no routing decision (``selected_collections is
        None``) broadcasts: no probe, no span, no overhead key.  A routed
        profile makes the host charge one sketch probe per
        sub-collection, then the stage iterates the profile's predicted
        collections only: the selected count caps the Table 2 iterative
        granularity, so SEND/ISEND/RECV partition over fewer sub-tasks
        and the Eq 14/15 partition-comms and migration payloads shrink
        with it.  A profile predicting nothing falls back to the full
        fan-out — selection may cost recall, never the question.
        """
        profile = self.profile
        collections = profile.collections
        keep = profile.selected_collections
        if keep is None:
            return collections
        config = self.system.config
        env = self.system.env
        t0 = env.now
        stage = self._span("stage:PR-select", SpanCategory.PARTITION, self.host)
        probe = self._span(
            "select:sketch-probe", SpanCategory.DISPATCH, self.host, stage
        )
        yield from self._node(self.host).run_cpu(
            config.selection_probe_cpu_s * len(collections)
        )
        self._spans.end(probe, env.now, probed=len(collections))
        keep_set = set(keep)
        selected = [
            c for c in collections if c.collection_id in keep_set
        ] or collections
        self.result.overhead["pr_select"] = (
            self.result.overhead.get("pr_select", 0.0) + (env.now - t0)
        )
        self._spans.end(
            stage,
            env.now,
            kept=len(selected),
            pruned=len(collections) - len(selected),
        )
        return selected

    def _run_pr_stage(self) -> t.Generator[Event, object, None]:
        env = self.system.env
        result = self.result
        policy = self.policy
        collections = yield from self._select_collections()
        pr_compute: dict[int, float] = {}
        ps_compute: dict[int, float] = {}

        stage, assignment = yield from self._open_stage(
            "PR", policy.enable_pr_dispatch, PR_WEIGHTS,
            policy.pr_underload_margin, len(collections),
        )
        result.pr_partition_width = len(assignment.shares)
        result.migrated_pr = assignment.node_ids != [self.host]

        def executor(
            nid: int, items: list[CollectionProfile]
        ) -> t.Generator[Event, object, None]:
            yield from self._pr_executor(nid, items, pr_compute, ps_compute)

        self._stage = stage
        try:
            yield from self._distribute(
                items=collections,
                assignment=assignment,
                executor=executor,
                strategy=policy.pr_strategy,
                chunk_size=policy.pr_chunk_collections,
            )

            # Paragraph merging: the host reads remotely produced paragraphs
            # back from disk before ordering (Section 3.2).
            remote_bytes = sum(
                b
                for nid, b in self._pr_remote_bytes.items()
                if nid != self.host
            )
            if remote_bytes > 0:
                mspan = self._span(
                    "merge:paragraphs", SpanCategory.COMPUTE, self.host, stage
                )
                yield from self._node(self.host).run_disk(remote_bytes)
                self._spans.end(mspan, env.now, bytes=remote_bytes)
        finally:
            self._stage = None
            self._spans.end(
                stage, env.now, width=len(assignment.shares)
            )

        result.module_times["PR"] = max(pr_compute.values(), default=0.0)
        result.module_times["PS"] = max(ps_compute.values(), default=0.0)

    def _pr_executor(
        self,
        nid: int,
        items: list[CollectionProfile],
        pr_compute: dict[int, float],
        ps_compute: dict[int, float],
    ) -> t.Generator[Event, object, None]:
        """Run PR+PS for a set of collections on node ``nid``."""
        env = self.system.env
        node = self._node(nid)
        remote = nid != self.host
        allocated = False
        chunk = self._span(
            "pr-chunk", SpanCategory.PARTITION, nid, self._stage,
            "%dc", len(items),
        )
        self.system.metrics.inc(PARTITION_CHUNKS)
        try:
            if remote:
                yield from self._transfer(
                    self.host, nid, self.profile.keyword_bytes, "keyword_send",
                    new_connection=True, parent=chunk,
                )
                node.memory.allocate(self.policy.pr_subtask_memory_bytes)
                allocated = True
            for coll in items:
                if not node.up:
                    raise WorkerFailed(nid, items[items.index(coll):])
                cspan = self._span(
                    "pr+ps", SpanCategory.COMPUTE, nid, chunk,
                    "c%d", coll.collection_id,
                )
                t0 = env.now
                yield from node.run_cost(coll.cost)
                pr_compute[nid] = pr_compute.get(nid, 0.0) + (env.now - t0)
                t0 = env.now
                yield from node.run_cpu(coll.ps_cpu_s)
                ps_compute[nid] = ps_compute.get(nid, 0.0) + (env.now - t0)
                self._spans.end(cspan, env.now)
                self._trace(
                    nid, "pr-collection",
                    "c%d %dp", coll.collection_id, coll.n_paragraphs,
                )
                if remote:
                    yield from self._transfer(
                        nid, self.host, coll.paragraph_bytes, "paragraph_recv",
                        parent=chunk,
                    )
                self._pr_remote_bytes[nid] = self._pr_remote_bytes.get(
                    nid, 0.0
                ) + coll.paragraph_bytes
        except TransferFailed as exc:
            raise WorkerFailed(nid, items) from exc
        finally:
            if allocated:
                node.memory.release(self.policy.pr_subtask_memory_bytes)
            self._spans.end(chunk, env.now)

    # -- AP stage -----------------------------------------------------------------------
    def _run_ap_stage(self) -> t.Generator[Event, object, None]:
        result = self.result
        policy = self.policy
        ap_compute: dict[int, float] = {}

        stage, assignment = yield from self._open_stage(
            "AP", policy.enable_ap_dispatch, AP_WEIGHTS,
            policy.ap_underload_margin, None,
        )
        result.ap_partition_width = len(assignment.shares)
        result.migrated_ap = assignment.node_ids != [self.host]

        def executor(
            nid: int, items: list[ParagraphProfile]
        ) -> t.Generator[Event, object, None]:
            yield from self._ap_executor(nid, items, ap_compute)

        self._stage = stage
        try:
            yield from self._distribute(
                items=self.profile.paragraphs,
                assignment=assignment,
                executor=executor,
                strategy=policy.ap_strategy,
                chunk_size=policy.ap_chunk_paragraphs,
            )
        finally:
            self._stage = None
            self._spans.end(
                stage, self.system.env.now, width=len(assignment.shares)
            )
        result.module_times["AP"] = max(ap_compute.values(), default=0.0)

    def _ap_executor(
        self,
        nid: int,
        items: list[ParagraphProfile],
        ap_compute: dict[int, float],
    ) -> t.Generator[Event, object, None]:
        env = self.system.env
        node = self._node(nid)
        remote = nid != self.host
        nbytes = sum(p.size_bytes for p in items)
        ap_mem_total = self.profile.memory_bytes * (
            1.0 - self.policy.host_memory_fraction
        )
        mem_share = ap_mem_total * len(items) / max(1, self.profile.n_accepted)
        allocated = False
        chunk = self._span(
            "ap-chunk", SpanCategory.PARTITION, nid, self._stage,
            "%dp", len(items),
        )
        self.system.metrics.inc(PARTITION_CHUNKS)
        try:
            if remote:
                yield from self._transfer(
                    self.host, nid, nbytes, "paragraph_send",
                    new_connection=True, parent=chunk,
                )
            node.memory.allocate(mem_share)
            allocated = True
            if not node.up:
                raise WorkerFailed(nid, items)
            cspan = self._span("ap", SpanCategory.COMPUTE, nid, chunk)
            t0 = env.now
            cpu = sum(p.ap_cpu_s for p in items) + self.policy.ap_per_partition_cpu_s
            yield from node.run_cpu(cpu)
            ap_compute[nid] = ap_compute.get(nid, 0.0) + (env.now - t0)
            self._spans.end(cspan, env.now)
            self._trace(nid, "ap-part", "%dp in %.2fs", len(items), env.now - t0)
            if not node.up:
                raise WorkerFailed(nid, items)
            if remote:
                answer_bytes = self.profile.n_answers * self.profile.answer_bytes
                yield from self._transfer(
                    nid, self.host, answer_bytes, "answer_recv", parent=chunk
                )
                # The host reads received answers from disk before merging.
                yield from self._node(self.host).run_disk(answer_bytes)
        except TransferFailed as exc:
            raise WorkerFailed(nid, items) from exc
        finally:
            if allocated:
                node.memory.release(mem_share)
            self._spans.end(chunk, env.now)

    # -- shared dispatch/distribution machinery ----------------------------------------
    def _open_stage(
        self,
        kind: str,
        enabled: bool,
        weights,
        margin: float,
        max_parts: int | None,
    ) -> t.Generator[Event, object, tuple[Span | None, Assignment]]:
        """Open the ``kind`` ("PR" / "AP") stage and run its dispatcher.

        Scheduling points 2 and 3 share this prologue: the stage span,
        the dispatch span over the Eq 15 scan cost and the meta-scheduler
        call, and the Fig 7 instant when the module leaves the host.
        Returns the open stage span and the assignment.
        """
        env = self.system.env
        stage_name, dispatch_name, instant = _STAGE_NAMES[kind]
        stage = self._span(stage_name, SpanCategory.PARTITION, self.host)
        dspan = self._span(dispatch_name, SpanCategory.DISPATCH, self.host, stage)
        if enabled:
            yield from self._dispatch_scan_cost()
        assignment = self._dispatch(enabled, weights, margin, max_parts)
        self._spans.end(dspan, env.now, width=len(assignment.shares))
        if assignment.node_ids != [self.host]:
            self._trace(
                self.host, instant,
                "-> %s", ",".join(f"N{n}" for n in assignment.node_ids),
            )
        return stage, assignment

    def _dispatch(
        self,
        enabled: bool,
        weights,
        margin: float,
        max_parts: int | None,
    ) -> Assignment:
        """Run a module dispatcher, or stay on the host when disabled."""
        if not enabled:
            return Assignment(shares=((self.host, 1.0),), forced_single=True)
        table = self.system.monitoring.view(self.host)
        if not self.policy.enable_partitioning:
            max_parts = 1
        assignment = meta_schedule(
            table,
            weights,
            underload_margin=margin,
            max_parts=max_parts,
            include=self.host,
            stay_on=self.host,
            stay_threshold=single_task_load(weights),
            registry=self.system.metrics,
        )
        # Optimistically account the dispatched work on the chosen nodes in
        # this host's view, damping same-interval herding.
        monitoring = self.system.monitoring
        for nid, share in assignment.shares:
            monitoring.note_load_share(
                self.host, nid, weights.cpu * share, weights.disk * share
            )
        return assignment

    def _distribute(
        self,
        items: t.Sequence,
        assignment: Assignment,
        executor,
        strategy: PartitioningStrategy,
        chunk_size: int,
    ) -> t.Generator[Event, object, None]:
        if not items:
            return
        env = self.system.env
        if len(assignment.shares) == 1:
            nid = assignment.shares[0][0]
            yield from self._single_node_with_recovery(nid, list(items), executor)
            return
        if strategy is PartitioningStrategy.RECV:
            yield from run_receiver_controlled(
                env, items, assignment.node_ids, executor, chunk_size,
                policy=self.policy.distribution_retry,
                spans=self._spans,
                span_parent=self._stage,
                qid=self.profile.qid,
                metrics=self.system.metrics,
            )
        else:
            yield from run_sender_controlled(
                env,
                items,
                assignment.shares,
                executor,
                interleaved=strategy is PartitioningStrategy.ISEND,
                policy=self.policy.distribution_retry,
                spans=self._spans,
                span_parent=self._stage,
                qid=self.profile.qid,
                metrics=self.system.metrics,
            )

    def _single_node_with_recovery(
        self, nid: int, items: list, executor
    ) -> t.Generator[Event, object, None]:
        """Unpartitioned execution; on worker failure, fall back to host."""
        try:
            yield from executor(nid, items)
        except WorkerFailed as failure:
            if nid == self.host:
                raise  # the host itself died; the task is lost
            self._trace(nid, "worker-failed", "%d items", len(failure.unprocessed))
            yield from executor(self.host, list(failure.unprocessed))
