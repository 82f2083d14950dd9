"""Bounded admission control mirroring the simulator's node discipline.

The simulated cluster nodes execute at most three questions concurrently
and park the rest in a FIFO queue
(:class:`repro.core.node.NodeConfig.max_concurrent_questions`, Section
4.2's "best throughput at 2-3 simultaneous questions").  The serving
layer applies the *same* discipline at its front door, with one crucial
difference from the simulator: the queue is **bounded**, and a question
that cannot be queued (or that would miss the deadline even if queued)
is shed at once, its :class:`AdmissionDecision` carrying the typed
:class:`~repro.serving.protocol.ShedReason`, the queue depth and the
predicted wait, instead of waiting without limit.

One promise
-----------
:attr:`AdmissionConfig.effective_deadline_s` is the serving layer's one
latency budget: admission sheds an arrival whose predicted sojourn
exceeds it, a completion whose measured latency exceeds it is a deadline
violation, and it is the p99 target of the server's SLO monitor.

Determinism
-----------
The controller is a pure state machine over *logical* arrival
timestamps: a :math:`G/G/c` queue with ``max_concurrent`` modelled
service slots and a fixed per-question service-time estimate.  Given the
same arrival schedule and configuration, the accept/shed decision
sequence is **byte-identical** regardless of how many OS worker
processes execute the accepted questions or how fast the machine is —
the same invariant the parallel experiment engine keeps for ``--jobs``.
Worker count changes wall-clock throughput, never decisions, which is
what lets the loadgen compare real serving runs against the simulated
cluster under one overload protocol.
"""

from __future__ import annotations

import heapq
import typing as t
from dataclasses import dataclass, field

from .protocol import ShedReason

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
]


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Knobs of the admission discipline."""

    #: Modelled concurrent service slots — the FIFO-of-3 node discipline.
    max_concurrent: int = 3
    #: Questions allowed to wait beyond the running set; arrivals past
    #: this bound are shed with ``QUEUE_FULL``.
    max_queue_depth: int = 4
    #: Modelled per-question service time (seconds); the loadgen
    #: calibrates this against the real pipeline before driving load.
    est_service_s: float = 0.05
    #: Total sojourn budget (wait + service, seconds); arrivals whose
    #: predicted sojourn exceeds it are shed with ``DEADLINE``.  ``None``
    #: derives ``6 x est_service_s``.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.est_service_s <= 0:
            raise ValueError("est_service_s must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")

    @property
    def effective_deadline_s(self) -> float:
        """The sojourn budget actually enforced: the serving layer's SLO."""
        if self.deadline_s is not None:
            return self.deadline_s
        return 6.0 * self.est_service_s


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One accept/shed decision, in submission order.

    The tuple of these (see :meth:`AdmissionController.decision_key`) is
    the determinism-regression fingerprint: byte-identical across worker
    counts for a seeded workload.
    """

    seq: int
    qid: int
    arrival_s: float
    accepted: bool
    shed_reason: ShedReason | None
    #: Modelled wait before a service slot frees (0 when admitted idle).
    predicted_wait_s: float
    #: Modelled waiters ahead at arrival (after this decision, if accepted).
    queue_depth: int

    def key(self) -> tuple[t.Any, ...]:
        """Hashable, repr-stable identity used for determinism digests."""
        return (
            self.seq,
            self.qid,
            self.accepted,
            None if self.shed_reason is None else self.shed_reason.value,
            round(self.predicted_wait_s, 9),
            self.queue_depth,
        )


@dataclass(slots=True)
class AdmissionController:
    """The bounded-FIFO admission state machine.

    Arrivals must be presented in non-decreasing ``arrival_s`` order
    (the controller clamps small regressions rather than rejecting them,
    so a real clock with jitter still works).
    """

    config: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Modelled completion times of questions occupying service slots
    #: (min-heap, at most ``max_concurrent`` entries).
    _busy: list[float] = field(default_factory=list)
    #: Modelled start times of admitted questions that had to queue.
    _queued_starts: list[float] = field(default_factory=list)
    _clock_s: float = 0.0
    draining: bool = False
    decisions: list[AdmissionDecision] = field(default_factory=list)

    def _advance(self, now_s: float) -> float:
        """Move the logical clock forward, starting queued work."""
        now_s = max(now_s, self._clock_s)
        self._clock_s = now_s
        if self._queued_starts:
            self._queued_starts = [s for s in self._queued_starts if s > now_s]
        return now_s

    def queue_depth(self, now_s: float) -> int:
        """Modelled waiters (admitted but not yet started) at ``now_s``."""
        self._advance(now_s)
        return len(self._queued_starts)

    def predicted_wait_s(self, now_s: float) -> float:
        """Modelled wait a new arrival at ``now_s`` would experience.

        ``_busy`` is the slot-free heap of the :math:`G/G/c` model — its
        minimum is when the earliest of the ``max_concurrent`` service
        slots next frees, already accounting for queued admissions.
        """
        now_s = self._advance(now_s)
        if len(self._busy) < self.config.max_concurrent:
            return 0.0
        return max(0.0, self._busy[0] - now_s)

    def submit(self, seq: int, qid: int, arrival_s: float) -> AdmissionDecision:
        """Decide accept/shed for one arrival; records and returns it."""
        now_s = self._advance(arrival_s)
        cfg = self.config

        def shed(reason: ShedReason, wait: float = 0.0) -> AdmissionDecision:
            d = AdmissionDecision(
                seq=seq,
                qid=qid,
                arrival_s=now_s,
                accepted=False,
                shed_reason=reason,
                predicted_wait_s=wait,
                queue_depth=len(self._queued_starts),
            )
            self.decisions.append(d)
            return d

        if self.draining:
            return shed(ShedReason.DRAINING)
        wait = self.predicted_wait_s(now_s)
        if wait > 0 and len(self._queued_starts) >= cfg.max_queue_depth:
            return shed(ShedReason.QUEUE_FULL, wait)
        if wait + cfg.est_service_s > cfg.effective_deadline_s:
            return shed(ShedReason.DEADLINE, wait)

        start = now_s + wait
        end = start + cfg.est_service_s
        if len(self._busy) < cfg.max_concurrent:
            heapq.heappush(self._busy, end)
        else:
            heapq.heapreplace(self._busy, end)
        if wait > 0:
            self._queued_starts.append(start)
        d = AdmissionDecision(
            seq=seq,
            qid=qid,
            arrival_s=now_s,
            accepted=True,
            shed_reason=None,
            predicted_wait_s=wait,
            queue_depth=len(self._queued_starts),
        )
        self.decisions.append(d)
        return d

    def start_draining(self) -> None:
        """Stop accepting: every further submit sheds with ``DRAINING``."""
        self.draining = True

    def decision_key(self) -> tuple[tuple[t.Any, ...], ...]:
        """The full decision sequence as a stable, hashable fingerprint."""
        return tuple(d.key() for d in self.decisions)
