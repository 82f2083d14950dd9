"""Hierarchical span tracing for the simulated distributed system.

The paper's Fig 7 is a *flat* list of timestamped events; it can show
*that* N2 finished chunk 3 but not where a question's wall-clock went.  A
:class:`SpanStream` records *intervals* — each with a parent — so every
question becomes a tree:

    question q17
    ├── queue            (admission wait at N3)
    ├── dispatch:qa      (scheduling point 1)
    ├── QP               (compute, N3)
    ├── stage:PR
    │   ├── send:keywords     N3 -> N5    (comms)
    │   ├── chunk[0]          N5          (partition)
    │   └── recv:paragraphs   N5 -> N3    (comms)
    ├── PO               (compute)
    ├── stage:AP
    │   └── ...
    └── sort:answers

The stream stores flat :class:`Span` records (cheap, append-only) and
reconstructs trees on demand.  Zero-duration *instant* spans are the
Fig 7 event stream; :func:`render_trace` prints them in the paper's style.

When disabled, ``begin``/``end``/``instant`` return immediately without
allocating; ``max_spans`` bounds the store so unbounded chaos campaigns
cannot grow it without limit (overflow increments ``dropped``).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

__all__ = ["Span", "SpanStream", "SpanCategory", "render_trace"]


class SpanCategory:
    """Canonical span categories (the attribution vocabulary)."""

    TASK = "task"  # per-question root spans
    QUEUE = "queue"  # admission waits
    DISPATCH = "dispatch"  # scheduling-point decisions
    MIGRATION = "migration"  # question hand-offs between nodes
    COMPUTE = "compute"  # module CPU/disk work
    COMMS = "comms"  # partition data transfers
    PARTITION = "partition"  # SEND/ISEND/RECV chunk execution
    RETRY = "retry"  # backoff/recovery rounds
    MONITOR = "monitor"  # load-monitor broadcasts
    EVENT = "event"  # zero-duration Fig 7 instants


@dataclass(slots=True)
class Span:
    """One timed interval in a question's execution tree."""

    sid: int
    parent_id: int  # -1 for roots
    name: str
    cat: str
    qid: int
    node_id: int
    t0: float
    t1: float  # == t0 for instants; updated by SpanStream.end
    detail: str = ""
    attrs: dict[str, t.Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0 for instants)."""
        return self.t1 - self.t0

    @property
    def is_instant(self) -> bool:
        """True for zero-duration point events (the Fig 7 stream)."""
        return self.cat == SpanCategory.EVENT


class SpanStream:
    """Append-only store of spans with tree reconstruction helpers.

    Parameters
    ----------
    enabled:
        When False every mutator is an allocation-free no-op.
    max_spans:
        Hard bound on stored spans; further ``begin``/``instant`` calls
        are counted in :attr:`dropped` instead of stored (open spans can
        still be ``end``-ed).  ``None`` means unbounded.
    """

    def __init__(self, enabled: bool = True, max_spans: int | None = None) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be >= 1 (or None)")
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._next_sid = 0

    # -- write side --------------------------------------------------------------
    def _full(self) -> bool:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return True
        return False

    def begin(
        self,
        name: str,
        cat: str,
        qid: int,
        node_id: int,
        time: float,
        parent: Span | None = None,
        detail: str = "",
    ) -> Span | None:
        """Open a span; returns None when disabled or at the bound."""
        if not self.enabled or self._full():
            return None
        span = Span(
            sid=self._next_sid,
            parent_id=parent.sid if parent is not None else -1,
            name=name,
            cat=cat,
            qid=qid,
            node_id=node_id,
            t0=time,
            t1=time,
        )
        if detail:
            span.detail = detail
        self._next_sid += 1
        self.spans.append(span)
        return span

    def end(
        self, span: Span | None, time: float, **attrs: t.Any
    ) -> None:
        """Close ``span`` at ``time`` (no-op on None from a disabled begin)."""
        if span is None:
            return
        span.t1 = time
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        qid: int,
        node_id: int,
        time: float,
        detail: str = "",
        parent: Span | None = None,
    ) -> None:
        """Record a zero-duration event (the Fig 7 record format)."""
        if not self.enabled or self._full():
            return
        span = Span(
            sid=self._next_sid,
            parent_id=parent.sid if parent is not None else -1,
            name=name,
            cat=SpanCategory.EVENT,
            qid=qid,
            node_id=node_id,
            t0=time,
            t1=time,
        )
        if detail:
            span.detail = detail
        self._next_sid += 1
        self.spans.append(span)

    def clear(self) -> None:
        """Drop all stored spans (the bound and enabled flag stay)."""
        self.spans.clear()
        self.dropped = 0

    # -- read side --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def instants(self) -> list[Span]:
        """All zero-duration events, in record order."""
        return [s for s in self.spans if s.is_instant]

    def intervals(self) -> list[Span]:
        """All durational spans, in record order."""
        return [s for s in self.spans if not s.is_instant]

    def question_ids(self) -> list[int]:
        """Distinct qids with at least one span, sorted."""
        return sorted({s.qid for s in self.spans})

    def roots(self, qid: int | None = None) -> list[Span]:
        """Parentless durational spans (per ``qid`` when given)."""
        return [
            s
            for s in self.spans
            if s.parent_id < 0
            and not s.is_instant
            and (qid is None or s.qid == qid)
        ]

    def children(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in record order."""
        return [s for s in self.spans if s.parent_id == span.sid]

    def subtree(self, span: Span) -> list[Span]:
        """``span`` plus all descendants (depth-first record order)."""
        by_parent: dict[int, list[Span]] = {}
        for s in self.spans:
            by_parent.setdefault(s.parent_id, []).append(s)
        out: list[Span] = []
        stack = [span]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(by_parent.get(current.sid, [])))
        return out


def render_trace(events: t.Sequence[Span], t0: float | None = None) -> str:
    """Render instant spans in the Fig 7 style.

    Times are shown relative to ``t0`` (default: first event).
    """
    if not events:
        return "(empty trace)"
    base = min(e.t0 for e in events) if t0 is None else t0
    lines = []
    for e in sorted(events, key=lambda e: (e.t0, e.node_id)):
        detail = f" {e.detail}" if e.detail else ""
        lines.append(f"[{e.t0 - base:8.3f}s] N{e.node_id} q{e.qid} {e.name}{detail}")
    return "\n".join(lines)
