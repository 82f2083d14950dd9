"""Typed request/response surface of the serving layer.

The serving layer speaks a deliberately small vocabulary, mirroring the
accounting discipline the chaos campaign established for the simulator:
every question submitted to a :class:`~repro.serving.server.QAServer`
finishes in **exactly one** of three terminal outcomes —

* ``ANSWERED`` — accepted, executed by a worker, answer returned;
* ``SHED`` — rejected at admission with a typed :class:`OverloadError`
  (never silently queued without bound);
* ``DRAINED`` — accepted but still in flight when the server shut down
  (graceful drain timed out or was cut short).

:class:`ConservationLedger` is the running proof of that invariant:
``answered + shed + drained == submitted`` must hold exactly at drain
time, and the CI serve-smoke job fails the build if it ever does not.
"""

from __future__ import annotations

import enum
import typing as t
from dataclasses import dataclass, field

__all__ = [
    "ConservationLedger",
    "Outcome",
    "OverloadError",
    "ServeResponse",
    "ShedReason",
]


class Outcome(enum.Enum):
    """Terminal state of one submitted question."""

    ANSWERED = "answered"
    SHED = "shed"
    DRAINED = "drained"


class ShedReason(enum.Enum):
    """Why admission rejected a question (the typed overload taxonomy)."""

    #: The bounded FIFO admission queue was full (the paper's nodes admit
    #: 3 concurrent questions; waiters beyond the bound are rejected).
    QUEUE_FULL = "queue_full"
    #: Predicted wait + service would miss the question's deadline, so
    #: accepting it would only burn capacity on a doomed answer.
    DEADLINE = "deadline"
    #: The client exhausted its token bucket.
    RATE_LIMITED = "rate_limited"
    #: The server is draining and no longer accepts work.
    DRAINING = "draining"


class OverloadError(Exception):
    """Typed admission rejection: the load-shedding alternative to queueing.

    Carries the :class:`ShedReason` plus the queue state that justified
    the decision, so clients (and the loadgen report) can distinguish
    "slow down" (``RATE_LIMITED``) from "the service is saturated"
    (``QUEUE_FULL``/``DEADLINE``) from "the service is going away"
    (``DRAINING``).
    """

    def __init__(
        self,
        reason: ShedReason,
        qid: int,
        *,
        queue_depth: int = 0,
        predicted_wait_s: float = 0.0,
    ) -> None:
        super().__init__(
            f"question {qid} shed: {reason.value} "
            f"(queue depth {queue_depth}, "
            f"predicted wait {predicted_wait_s:.3f}s)"
        )
        self.reason = reason
        self.qid = qid
        self.queue_depth = queue_depth
        self.predicted_wait_s = predicted_wait_s


@dataclass(frozen=True, slots=True)
class ServeResponse:
    """Terminal record for one submitted question."""

    seq: int
    qid: int
    outcome: Outcome
    shed_reason: ShedReason | None = None
    #: Top extracted answers as (text, score) pairs (empty unless ANSWERED).
    answers: tuple[tuple[str, float], ...] = ()
    #: Measured seconds from submit to completion (ANSWERED only).
    latency_s: float = 0.0
    #: Measured seconds the request waited before a worker started on it:
    #: the micro-batch buffer, the request queue and, for a batch member,
    #: the service of the members ahead of it in its unit.
    admission_wait_s: float = 0.0
    #: Measured seconds of pipeline execution.
    service_s: float = 0.0
    #: Pid of the worker that answered (0 for inline execution).
    worker_pid: int = 0
    #: True when this question's worker-side trace was head-sampled and
    #: its span subtree stitched into the server's stream.
    sampled: bool = False
    #: True when the measured latency exceeded the question's sojourn
    #: budget (the admission deadline, judged retrospectively).
    deadline_violated: bool = False
    #: The worker's exception, when its pipeline raised on this question:
    #: the outcome is still ANSWERED, with no answers.
    error: str = ""

    @property
    def answered(self) -> bool:
        return self.outcome is Outcome.ANSWERED


@dataclass(slots=True)
class ConservationLedger:
    """Question-conservation accounting for one server lifetime.

    The serving counterpart of the chaos campaign's
    :class:`~repro.workload.metrics.FailureAccounting`: every submitted
    question must land in exactly one terminal bucket.
    """

    submitted: int = 0
    answered: int = 0
    shed: int = 0
    drained: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)

    def record(self, outcome: Outcome, reason: ShedReason | None = None) -> None:
        """Count one terminal outcome (``submitted`` is counted separately)."""
        if outcome is Outcome.ANSWERED:
            self.answered += 1
        elif outcome is Outcome.SHED:
            self.shed += 1
            key = reason.value if reason is not None else "unknown"
            self.shed_by_reason[key] = self.shed_by_reason.get(key, 0) + 1
        else:
            self.drained += 1

    @property
    def balanced(self) -> bool:
        """The conservation invariant: nothing lost, nothing double-counted."""
        return self.answered + self.shed + self.drained == self.submitted

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    def to_dict(self) -> dict[str, t.Any]:
        """JSON form used by the loadgen report and the CI smoke job."""
        return {
            "submitted": self.submitted,
            "answered": self.answered,
            "shed": self.shed,
            "drained": self.drained,
            "shed_fraction": self.shed_fraction,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "balanced": self.balanced,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"submitted={self.submitted} answered={self.answered} "
            f"shed={self.shed} drained={self.drained} "
            f"({'balanced' if self.balanced else 'IMBALANCED'})"
        )
