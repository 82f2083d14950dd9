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

import numpy as np

from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    DISPATCH_DECISIONS,
    QA_MIGRATION_FAILURES,
    QA_MIGRATIONS,
)
from .load import QA_WEIGHTS, single_task_load
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

    def qa_loads(self, host_id: int) -> np.ndarray:
        """The dispatcher's Eq-1 load for every row of the table, as
        ``host_id`` sees it (itself live).  A new array.

        Every *hosted* question (running or queued) contributes one
        average-question load — on the paper's system all of them are live
        processes that the Unix load averages count; under admission
        control the commitment must be reconstructed from the hosted
        count.  The instantaneous measured load only breaks ties, so that
        phase noise (a question momentarily in its disk phase) does not
        trigger migrations.
        """
        monitoring = self.monitoring
        measured = monitoring.loads(QA_WEIGHTS, host_id)
        loads = monitoring.table.questions * _QUESTION_LOAD + 0.01 * measured
        hosted = monitoring.live_entry(host_id)[2]
        loads[host_id] = hosted * _QUESTION_LOAD + 0.01 * measured[host_id]
        return loads

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
        loads = self.qa_loads(host_id)
        host_load = loads[host_id]
        fresh = self.monitoring.fresh()
        if fresh is not None:
            loads[~fresh] = np.inf  # out of the pool
        if exclude:
            loads[list(exclude)] = np.inf
        loads[host_id] = host_load  # the host is always a candidate
        best = int(loads.argmin())  # the lowest id on a tie
        if best == host_id:
            return host_id
        if host_load - loads[best] <= self.migration_threshold:
            return host_id
        self.migrations += 1
        if self.metrics is not None:
            self.metrics.inc(QA_MIGRATIONS)
        self.monitoring.announce(best, questions=1)
        return best
