"""Partitioning strategies: SEND, ISEND, RECV (Section 4.1).

These implement Step 5 of the meta-scheduling algorithm — splitting an
iterative module's input items over the selected processors — plus the
failure-recovery distribution loops of Fig 5(c) and Fig 6(b).

* **SEND** (sender-controlled, direct): contiguous partitions sized by the
  processor weights.  Assumes sub-task granularity varies little.
* **ISEND** (sender-controlled, interleaved): round-robin interleaving of
  rank-ordered items, so each partition receives a similar mix of
  expensive and cheap items.  Valid when the input is sorted by
  granularity — true for AP (the PO rank order correlates with cost),
  not for PR.
* **RECV** (receiver-controlled): equal-size chunks pulled one at a time
  by the selected processors according to their actual availability.
  The only practical strategy for PR (Section 6.3), and the best for AP
  at the empirically optimal chunk size (~40 paragraphs, Fig 10).

The distribution loops are written against an abstract ``executor``
callback so the same code drives PR partitions (collections) and AP
partitions (paragraphs) in the simulated cluster — and plain lists in unit
tests.
"""

from __future__ import annotations

import enum
import heapq
import typing as t
from dataclasses import dataclass

from ..observability.metrics import MetricsRegistry
from ..observability.names import PARTITION_RETRY_ROUNDS
from ..observability.spans import Span, SpanCategory, SpanStream
from ..simulation.engine import Environment, Process
from ..simulation.events import Event

__all__ = [
    "PartitionAbort",
    "PartitioningStrategy",
    "RetryPolicy",
    "WorkerFailed",
    "partition_send",
    "partition_isend",
    "make_chunks",
    "run_sender_controlled",
    "run_receiver_controlled",
]

T = t.TypeVar("T")


class PartitioningStrategy(enum.Enum):
    """The three Section 4.1 strategies."""

    SEND = "SEND"
    ISEND = "ISEND"
    RECV = "RECV"


class PartitionAbort(RuntimeError):
    """Every worker of a partitioned module failed.

    Since the task's host always participates in its own partitions, this
    only happens when the host itself is down — the task is lost.
    """


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded-retry + exponential-backoff policy for recovery loops.

    One *recovery round* is one pass of a distribution loop that had to
    reschedule work after worker failures.  The default policy
    (``max_rounds=None``, no backoff) reproduces the paper's behaviour:
    retry until the worker pool is exhausted, immediately.  Chaos
    campaigns run with a bounded budget and backoff so that a flapping
    cluster converges (or fails fast) instead of thrashing.
    """

    #: Recovery rounds allowed before the loop gives up with
    #: :class:`PartitionAbort`; ``None`` retries while workers remain.
    max_rounds: int | None = None
    #: First backoff delay; 0 disables backoff entirely.
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0 (or None)")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def exhausted(self, rounds: int) -> bool:
        """True once ``rounds`` recovery rounds exceed the budget."""
        return self.max_rounds is not None and rounds > self.max_rounds

    def delay(self, round_index: int) -> float:
        """Backoff before retry round ``round_index`` (0-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor**round_index,
            self.backoff_max_s,
        )


class WorkerFailed(Exception):
    """Raised by an executor when its worker node dies mid-sub-task.

    Carries the unprocessed items so the recovery loop can reschedule
    them ("the distribution algorithm builds a new task input by
    concatenating all unprocessed partitions", Fig 5c).
    """

    def __init__(self, node_id: int, unprocessed: t.Sequence[object]) -> None:
        super().__init__(f"worker {node_id} failed with {len(unprocessed)} items")
        self.node_id = node_id
        self.unprocessed = list(unprocessed)


# -- pure partitioning functions ------------------------------------------------


def partition_send(
    items: t.Sequence[T], weights: t.Sequence[float]
) -> list[list[T]]:
    """Fig 5(a): contiguous partitions proportional to ``weights``.

    Partition sizes are the largest-remainder apportionment of
    ``len(items)`` over the weights, so every item lands in exactly one
    partition and sizes differ from the exact proportional share by < 1.
    """
    _check_weights(weights)
    n = len(items)
    sizes = _apportion(n, weights)
    out: list[list[T]] = []
    start = 0
    for size in sizes:
        out.append(list(items[start : start + size]))
        start += size
    return out


def partition_isend(
    items: t.Sequence[T], weights: t.Sequence[float]
) -> list[list[T]]:
    """Fig 5(b): interleaved partitions proportional to ``weights``.

    Items are dealt round-robin (weighted: each processor's deal
    frequency matches its weight) so that, when items are sorted by
    cost, every partition receives a similar cost mix.
    """
    _check_weights(weights)
    sizes = _apportion(len(items), weights)
    out: list[list[T]] = [[] for _ in weights]
    # Weighted round-robin deal: repeatedly give the next item to the
    # processor whose filled fraction is lowest (ties to the lower
    # index).  Only the chosen processor's key changes per item, so the
    # open processors' (filled fraction, index) keys live in a heap.
    heap = [(0.0, k) for k, size in enumerate(sizes) if size > 0]
    for item in items:
        _, k = heap[0]
        part = out[k]
        part.append(item)
        if len(part) < sizes[k]:
            heapq.heapreplace(heap, (len(part) / sizes[k], k))
        else:
            heapq.heappop(heap)
    return out


def make_chunks(items: t.Sequence[T], chunk_size: int) -> list[list[T]]:
    """Fig 6(a): equal-size chunks (last chunk extended with the rest).

    The paper extends the final chunk to absorb the remainder rather than
    emitting a short chunk.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    n = len(items)
    if n == 0:
        return []
    n_chunks = max(1, n // chunk_size)
    chunks = [
        list(items[i * chunk_size : (i + 1) * chunk_size])
        for i in range(n_chunks)
    ]
    leftover = list(items[n_chunks * chunk_size :])
    chunks[-1].extend(leftover)
    return chunks


def _check_weights(weights: t.Sequence[float]) -> None:
    if not weights:
        raise ValueError("need at least one weight")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if sum(weights) <= 0:
        raise ValueError("weights must not all be zero")


def _apportion(n: int, weights: t.Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of ``n`` items over ``weights``."""
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    sizes = [int(q) for q in quotas]
    shortfall = n - sum(sizes)
    remainders = sorted(
        range(len(weights)), key=lambda k: (-(quotas[k] - sizes[k]), k)
    )
    for k in remainders[:shortfall]:
        sizes[k] += 1
    return sizes


# -- distribution loops with failure recovery -------------------------------------

#: An executor runs ``items`` on ``node_id`` inside the simulation and
#: returns a per-partition result; it raises :class:`WorkerFailed` when the
#: node dies.  Signature: executor(node_id, items) -> generator.
Executor = t.Callable[[int, list[T]], t.Generator[Event, object, object]]


def run_sender_controlled(
    env: Environment,
    items: t.Sequence[T],
    shares: t.Sequence[tuple[int, float]],
    executor: Executor,
    interleaved: bool,
    policy: RetryPolicy | None = None,
    spans: SpanStream | None = None,
    span_parent: Span | None = None,
    qid: int = -1,
    metrics: MetricsRegistry | None = None,
) -> t.Generator[Event, object, list[object]]:
    """Fig 5(c): the sender-controlled distribution loop (SEND/ISEND).

    Partitions ``items`` by the assignment ``shares``, runs all partitions
    in parallel (one monitor per worker, as the paper uses one thread per
    processor), collects failures, rebuilds a task from unprocessed
    partitions and repeats until everything is processed.  ``policy``
    bounds the recovery rounds and inserts backoff between them.

    ``spans``/``span_parent``/``qid`` attach a retry span (covering each
    recovery round's backoff) to the caller's span tree; ``metrics``
    counts rounds under the canonical ``partition.retry_rounds`` name.

    Returns the list of per-partition results in completion order.
    """
    policy = policy or RetryPolicy()
    results: list[object] = []
    pending = list(items)
    live_shares = list(shares)
    rounds = 0
    while pending:
        if not live_shares:
            raise PartitionAbort("all workers failed; cannot finish partitioned task")
        node_ids = [nid for nid, _ in live_shares]
        weights = [w for _, w in live_shares]
        partition = partition_isend if interleaved else partition_send
        parts = partition(pending, weights)

        procs: list[Process] = []
        for nid, part in zip(node_ids, parts):
            if part:
                procs.append(
                    env.process(
                        _guarded(executor, nid, part),
                        name=f"partition-worker[{nid}]",
                    )
                )
        if not procs:
            break
        done = yield env.all_of(procs)
        pending = []
        failed_nodes: set[int] = set()
        for proc in procs:
            outcome = done[proc]
            if isinstance(outcome, WorkerFailed):
                pending.extend(t.cast(list[T], outcome.unprocessed))
                failed_nodes.add(outcome.node_id)
            else:
                results.append(outcome)
        live_shares = [
            (nid, w) for nid, w in live_shares if nid not in failed_nodes
        ]
        if failed_nodes and live_shares:
            # Renormalize surviving weights.
            total = sum(w for _, w in live_shares)
            live_shares = [(nid, w / total) for nid, w in live_shares]
        if failed_nodes and pending:
            rounds += 1
            yield from _retry_round(
                env, policy, rounds, len(pending), ("recovery", "round", "items"),
                spans, span_parent, qid, metrics,
            )
    return results


def run_receiver_controlled(
    env: Environment,
    items: t.Sequence[T],
    node_ids: t.Sequence[int],
    executor: Executor,
    chunk_size: int,
    policy: RetryPolicy | None = None,
    spans: SpanStream | None = None,
    span_parent: Span | None = None,
    qid: int = -1,
    metrics: MetricsRegistry | None = None,
) -> t.Generator[Event, object, list[object]]:
    """Fig 6(b): the receiver-controlled distribution loop (RECV).

    Chunks ``items``; selected nodes run *pullers* that repeatedly take
    the next available chunk and process it, until the chunk set is
    empty.  A round starts at most one puller per chunk, on the first
    nodes of the pool (like SEND, which skips empty parts): every puller
    takes its first chunk before any chunk runs, so one started beyond
    the chunk count would find the set empty and exit.  A failed chunk
    goes back to the set and its node leaves the worker pool.
    ``policy`` bounds the re-pull rounds (started when a worker fails
    after its peers already drained the visible chunk set) and inserts
    backoff before each one.

    ``spans``/``span_parent``/``qid`` attach re-pull retry spans to the
    caller's span tree; ``metrics`` counts the rounds under the
    canonical ``partition.retry_rounds`` name.

    Returns per-chunk results in completion order.
    """
    if not node_ids:
        raise ValueError("need at least one worker")
    policy = policy or RetryPolicy()
    chunks = make_chunks(items, chunk_size)
    available: list[list[T]] = list(reversed(chunks))  # pop() from the front
    results: list[object] = []
    pool = list(node_ids)
    rounds = 0

    def puller(nid: int) -> t.Generator[Event, object, int | None]:
        while available:
            chunk = available.pop()
            try:
                outcome = yield env.process(executor(nid, chunk))
            except WorkerFailed as failure:
                available.append(t.cast(list[T], failure.unprocessed))
                return nid  # node leaves the worker pool
            results.append(outcome)
        return None

    # A worker may fail *after* its peers drained the visible chunk set and
    # exited; its returned chunk then needs a fresh round of pullers from
    # the surviving pool.
    while available:
        if not pool:
            raise PartitionAbort("all workers failed; unprocessed chunks remain")
        if rounds > 0:
            yield from _retry_round(
                env, policy, rounds, len(available), ("re-pull", "re-pull", "chunks"),
                spans, span_parent, qid, metrics,
            )
        procs = [
            env.process(puller(nid), name=f"chunk-puller[{nid}]")
            for nid in pool[: len(available)]
        ]
        done = yield env.all_of(procs)
        failed = {done[p] for p in procs if done[p] is not None}
        pool = [nid for nid in pool if nid not in failed]
        rounds += 1
    return results


def _retry_round(
    env: Environment,
    policy: RetryPolicy,
    rounds: int,
    n_left: int,
    words: tuple[str, str, str],
    spans: SpanStream | None,
    span_parent: Span | None,
    qid: int,
    metrics: MetricsRegistry | None,
) -> t.Generator[Event, object, None]:
    """Recovery round ``rounds`` of either loop, with ``n_left`` units left.

    Counts the round, aborts once the budget is spent, and covers the
    backoff with a ``retry:round`` span.  ``words`` names the round in
    the abort message, the round in the span detail, and the unit.
    """
    noun, label, unit = words
    if metrics is not None:
        metrics.inc(PARTITION_RETRY_ROUNDS)
    if policy.exhausted(rounds):
        raise PartitionAbort(
            f"retry budget exhausted after {rounds - 1} {noun} "
            f"rounds; {n_left} {unit} unprocessed"
        )
    rspan = None
    if spans is not None and spans.enabled:
        rspan = spans.begin(
            "retry:round",
            SpanCategory.RETRY,
            qid,
            span_parent.node_id if span_parent is not None else -1,
            env.now,
            parent=span_parent,
            detail=f"{label} {rounds}, {n_left} {unit}",
        )
    delay = policy.delay(rounds - 1)
    if delay > 0:
        yield env.timeout(delay)
    if spans is not None:
        spans.end(rspan, env.now, round=rounds, **{unit: n_left})


def _guarded(
    executor: Executor, nid: int, part: list[T]
) -> t.Generator[Event, object, object]:
    """Convert WorkerFailed into a *value* so all_of doesn't abort."""
    try:
        result = yield from executor(nid, part)
    except WorkerFailed as failure:
        return failure
    return result
