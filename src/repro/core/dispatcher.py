"""The question dispatcher (Section 3.1).

Runs once per question, before the Q/A task starts, to correct the DNS
round-robin placement: "If the DNS-allocated node is over-loaded, the
dispatcher migrates the Q/A task to another node ...  The dispatcher's
strategy is to select the processor with the smallest average load for the
Q/A task.  To avoid useless migrations, a question is migrated only if the
difference between the load of the source node and the load of the
destination node is greater than the average workload of a single
question."

The dispatcher decides on the shared load table, whose peer entries are
up to one broadcast interval old.  After a migration it announces the
question on the chosen node's entry, which every node sees at once, so
that questions dispatched from any node within one interval do not all
stampede to the same target.
"""

from __future__ import annotations

import typing as t

from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    DISPATCH_DECISIONS,
    QA_MIGRATION_FAILURES,
    QA_MIGRATIONS,
)
from .load import QA_WEIGHTS, LoadSnapshot, load_function, single_task_load
from .monitor import MonitoringSystem
from .partitioning import RetryPolicy

__all__ = ["QuestionDispatcher"]

#: Migration dispatch attempts per question: a migration transfer that
#: fails (target died between the load broadcast and the hand-off) is
#: retried against the next candidate, at most this many times, before
#: the question stays home.
_MAX_ATTEMPTS = 3
#: Backoff between those attempts.
_BACKOFF = RetryPolicy(backoff_base_s=0.05, backoff_max_s=5.0)
#: The load one lone average Q/A task produces.
_QUESTION_LOAD = single_task_load(QA_WEIGHTS)


class QuestionDispatcher:
    """Pre-task migration decisions (the INTER scheduling point)."""

    def __init__(
        self,
        monitoring: MonitoringSystem,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.monitoring = monitoring
        #: Optional registry mirroring the decision counters under the
        #: canonical ``dispatch.*`` metric names.
        self.metrics = metrics
        #: The "average workload of a single question" in load-function
        #: units: the load a lone average Q/A task produces.
        self.migration_threshold = _QUESTION_LOAD
        self.decisions = 0
        self.migrations = 0
        #: Migration transfers that failed mid-hand-off (chaos visibility).
        self.migration_failures = 0

    @staticmethod
    def qa_load(snap: LoadSnapshot) -> float:
        """The dispatcher's Eq-1 load for a node.

        Every *hosted* question (running or queued) contributes one
        average-question load — on the paper's system all of them are live
        processes that the Unix load averages count; under admission
        control the commitment must be reconstructed from the hosted
        count.  The instantaneous measured load only breaks ties, so that
        phase noise (a question momentarily in its disk phase) does not
        trigger migrations.
        """
        commitment = snap.n_questions * _QUESTION_LOAD
        measured = load_function(QA_WEIGHTS, snap)
        return commitment + 0.01 * measured

    def note_migration_failure(self) -> None:
        """Count one failed migration hand-off (target died mid-transfer)."""
        self.migration_failures += 1
        if self.metrics is not None:
            self.metrics.inc(QA_MIGRATION_FAILURES)

    def choose(
        self, host_id: int, exclude: t.AbstractSet[int] = frozenset()
    ) -> int:
        """Return the node that should run a question starting at ``host_id``.

        Returns ``host_id`` itself when no migration is warranted.
        ``exclude`` removes candidates a previous attempt already found
        dead (the retry loop's memory within one dispatch).
        """
        self.decisions += 1
        if self.metrics is not None:
            self.metrics.inc(DISPATCH_DECISIONS)
        table = self.monitoring.view(host_id)
        host_snap = table.get(host_id)
        if host_snap is None:  # pragma: no cover - host always sees itself
            return host_id
        loads = {
            nid: self.qa_load(snap)
            for nid, snap in table.items()
            if nid == host_id or nid not in exclude
        }
        _, best = min(zip(loads.values(), loads))
        if best == host_id:
            return host_id
        if loads[host_id] - loads[best] <= self.migration_threshold:
            return host_id
        self.migrations += 1
        if self.metrics is not None:
            self.metrics.inc(QA_MIGRATIONS)
        self.monitoring.announce(best, questions=1)
        return best
