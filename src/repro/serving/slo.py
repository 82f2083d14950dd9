"""Rolling-window SLO monitor and the ``repro top`` dashboard.

The loadgen's acceptance criteria are judged once, after the run; a
long-lived server needs the same judgement *continuously*.
:class:`SLOMonitor` keeps a rolling window of question outcomes and
evaluates it into a typed state machine:

* ``OK`` — windowed p99 within target, shed rate below the warn line;
* ``WARN`` — p99 above target, shed rate above the warn line, or
  deadline violations in the window;
* ``BREACH`` — p99 above ``breach_factor``× target or shed rate above
  the breach line.

All evaluation is driven by *caller-supplied* logical time — the monitor
never reads the wall clock — so unit tests replay outcome sequences
deterministically, exactly like the admission controller.  State
transitions are recorded with their reasons; the server emits them as
``slo`` records into ``telemetry.jsonl``, which is what ``repro top``
renders (a periodic text dashboard over a live or finished file).
"""

from __future__ import annotations

import enum
import typing as t
from collections import deque
from dataclasses import dataclass

from ..observability.metrics import _nearest_rank

__all__ = [
    "SLOConfig",
    "SLOMonitor",
    "SLOReport",
    "SLOState",
    "format_top",
    "run_top",
]


class SLOState(enum.Enum):
    """Typed SLO condition, ordered by severity."""

    OK = "ok"
    WARN = "warn"
    BREACH = "breach"


@dataclass(frozen=True, slots=True)
class SLOConfig:
    """Targets the rolling window is judged against."""

    #: Rolling window length (logical seconds).
    window_s: float = 30.0
    #: Latency objective: windowed p99 above this is WARN, above
    #: ``breach_factor`` times this is BREACH.
    p99_target_s: float = 1.0
    breach_factor: float = 2.0
    #: Shed-rate lines (fraction of window submissions shed).
    shed_warn: float = 0.05
    shed_breach: float = 0.25
    #: Minimum windowed outcomes before latency/shed judgements engage
    #: (a single slow question at startup is not a breach).
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.p99_target_s <= 0:
            raise ValueError("p99_target_s must be positive")
        if self.breach_factor < 1.0:
            raise ValueError("breach_factor must be >= 1")
        if not 0.0 <= self.shed_warn <= self.shed_breach <= 1.0:
            raise ValueError("need 0 <= shed_warn <= shed_breach <= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True, slots=True)
class SLOReport:
    """One evaluation of the rolling window."""

    t: float
    state: SLOState
    reasons: tuple[str, ...]
    n_answered: int
    n_shed: int
    shed_rate: float
    p50_s: float
    p95_s: float
    p99_s: float
    deadline_violations: int
    #: Busy fraction per worker pid over the window.
    utilization: dict[int, float]
    #: True when this evaluation changed the state.
    transition: bool
    prev_state: SLOState

    def to_dict(self) -> dict[str, t.Any]:
        """JSON form — the telemetry.jsonl ``slo`` record body."""
        return {
            "t": self.t,
            "state": self.state.value,
            "prev_state": self.prev_state.value,
            "reasons": list(self.reasons),
            "n_answered": self.n_answered,
            "n_shed": self.n_shed,
            "shed_rate": self.shed_rate,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "deadline_violations": self.deadline_violations,
            "utilization": {
                str(pid): frac for pid, frac in sorted(self.utilization.items())
            },
            "transition": self.transition,
        }


class SLOMonitor:
    """Deterministic rolling-window SLO state machine.

    Feed it outcomes with :meth:`record_answered` / :meth:`record_shed`
    (timestamps must be non-decreasing — a real clock qualifies, and so
    does a test script), then :meth:`evaluate` judges the window at a
    given instant.  Transitions accumulate in :attr:`transitions` as
    ``(t, old_state, new_state, reasons)``.
    """

    def __init__(self, config: SLOConfig | None = None) -> None:
        self.config = config or SLOConfig()
        self.state = SLOState.OK
        self.transitions: list[tuple[float, SLOState, SLOState, tuple[str, ...]]] = []
        #: (t, latency_s, service_s, worker_pid, deadline_violated)
        self._answered: deque[tuple[float, float, float, int, bool]] = deque()
        #: (t, reason)
        self._shed: deque[tuple[float, str]] = deque()
        self._t_first: float | None = None

    # -- feeding -----------------------------------------------------------------
    def record_answered(
        self,
        t_s: float,
        latency_s: float,
        service_s: float = 0.0,
        worker_pid: int = 0,
        deadline_violated: bool = False,
    ) -> None:
        """One answered question completing at logical time ``t_s``."""
        if self._t_first is None:
            self._t_first = t_s
        self._answered.append(
            (t_s, latency_s, service_s, worker_pid, deadline_violated)
        )

    def record_shed(self, t_s: float, reason: str = "") -> None:
        """One question shed at logical time ``t_s``."""
        if self._t_first is None:
            self._t_first = t_s
        self._shed.append((t_s, reason))

    def _trim(self, now_s: float) -> None:
        horizon = now_s - self.config.window_s
        while self._answered and self._answered[0][0] < horizon:
            self._answered.popleft()
        while self._shed and self._shed[0][0] < horizon:
            self._shed.popleft()

    # -- judging -----------------------------------------------------------------
    def evaluate(self, now_s: float) -> SLOReport:
        """Judge the window ending at ``now_s``; records any transition."""
        cfg = self.config
        self._trim(now_s)
        latencies = sorted(lat for _, lat, _, _, _ in self._answered)
        n_answered = len(latencies)
        n_shed = len(self._shed)
        n_total = n_answered + n_shed
        shed_rate = n_shed / n_total if n_total else 0.0
        p50 = _nearest_rank(latencies, 0.50)
        p95 = _nearest_rank(latencies, 0.95)
        p99 = _nearest_rank(latencies, 0.99)
        violations = sum(1 for *_, v in self._answered if v)

        # Busy fraction per worker: window service seconds / window span.
        span = cfg.window_s
        if self._t_first is not None:
            span = min(span, max(now_s - self._t_first, 1e-9))
        busy: dict[int, float] = {}
        for _, _, service_s, pid, _ in self._answered:
            busy[pid] = busy.get(pid, 0.0) + service_s
        utilization = {pid: min(1.0, s / span) for pid, s in busy.items()}

        warn: list[str] = []
        breach: list[str] = []
        if n_answered >= cfg.min_samples:
            if p99 > cfg.breach_factor * cfg.p99_target_s:
                breach.append(
                    f"p99 {p99:.3f}s > {cfg.breach_factor:g}x target "
                    f"{cfg.p99_target_s:.3f}s"
                )
            elif p99 > cfg.p99_target_s:
                warn.append(f"p99 {p99:.3f}s > target {cfg.p99_target_s:.3f}s")
        if n_total >= cfg.min_samples:
            if shed_rate >= cfg.shed_breach:
                breach.append(
                    f"shed rate {shed_rate:.1%} >= breach line "
                    f"{cfg.shed_breach:.1%}"
                )
            elif shed_rate >= cfg.shed_warn:
                warn.append(
                    f"shed rate {shed_rate:.1%} >= warn line {cfg.shed_warn:.1%}"
                )
        if violations:
            warn.append(f"{violations} deadline violation(s) in window")

        if breach:
            new_state, reasons = SLOState.BREACH, tuple(breach + warn)
        elif warn:
            new_state, reasons = SLOState.WARN, tuple(warn)
        else:
            new_state, reasons = SLOState.OK, ()
        prev = self.state
        transition = new_state is not prev
        if transition:
            self.transitions.append((now_s, prev, new_state, reasons))
            self.state = new_state
        return SLOReport(
            t=now_s,
            state=new_state,
            reasons=reasons,
            n_answered=n_answered,
            n_shed=n_shed,
            shed_rate=shed_rate,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            deadline_violations=violations,
            utilization=utilization,
            transition=transition,
            prev_state=prev,
        )


# -- the `repro top` dashboard -------------------------------------------------
def format_top(
    slo: dict[str, t.Any],
    samples: t.Sequence[dict[str, t.Any]] = (),
    totals: dict[str, int] | None = None,
    source: str = "",
) -> str:
    """Render one dashboard frame from telemetry records.

    ``slo`` is an ``slo`` record body (or ``SLOReport.to_dict()``),
    ``samples`` the most recent ``sample`` records, ``totals`` optional
    cumulative outcome counters.
    """
    state = str(slo.get("state", "ok")).upper()
    lines: list[str] = []
    title = f"repro top — SLO {state}"
    if source:
        title += f"  ({source})"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(
        f"window: {slo.get('n_answered', 0)} answered, "
        f"{slo.get('n_shed', 0)} shed "
        f"(shed rate {slo.get('shed_rate', 0.0):.1%}), "
        f"{slo.get('deadline_violations', 0)} deadline violation(s)"
    )
    lines.append(
        f"latency: p50 {slo.get('p50_s', 0.0) * 1e3:.1f} ms | "
        f"p95 {slo.get('p95_s', 0.0) * 1e3:.1f} ms | "
        f"p99 {slo.get('p99_s', 0.0) * 1e3:.1f} ms"
    )
    util = slo.get("utilization") or {}
    if util:
        cells = [
            f"w{pid}:{float(frac):>5.1%}" for pid, frac in sorted(util.items())
        ]
        lines.append("worker utilization: " + "  ".join(cells))
    for reason in slo.get("reasons") or []:
        lines.append(f"  ! {reason}")
    if totals:
        lines.append(
            "totals: "
            + " ".join(f"{k}={v}" for k, v in sorted(totals.items()))
        )
    if samples:
        lines.append(f"{'qid':>6} {'outcome':<9} {'latency':>9} {'worker':>7}")
        for s in samples:
            flag = "*" if s.get("forced") else " "
            lines.append(
                f"{s.get('qid', 0):>6} {s.get('outcome', '?'):<9} "
                f"{s.get('latency_s', 0.0) * 1e3:>7.1f}ms {s.get('worker', 0):>7}{flag}"
            )
    return "\n".join(lines)


def _frame_from_records(
    records: t.Sequence[dict[str, t.Any]], source: str, tail: int = 10
) -> str:
    """Build one dashboard frame from parsed telemetry records.

    Prefers the last emitted ``slo`` record; when the server never
    emitted one (no transitions before drain), the sample records are
    replayed through a fresh :class:`SLOMonitor` so the dashboard always
    has a judgement to show.
    """
    samples = [r for r in records if r.get("record") == "sample"]
    slo_recs = [r for r in records if r.get("record") == "slo"]
    totals: dict[str, int] = {}
    for s in samples:
        key = str(s.get("outcome", "?"))
        totals[key] = totals.get(key, 0) + 1
    if slo_recs:
        slo = slo_recs[-1]
    else:
        monitor = SLOMonitor()
        last_t = 0.0
        for s in samples:
            last_t = float(s.get("t", last_t))
            if s.get("outcome") == "answered":
                monitor.record_answered(
                    last_t,
                    float(s.get("latency_s", 0.0)),
                    service_s=float(s.get("service_s", 0.0)),
                    worker_pid=int(s.get("worker", 0)),
                )
            elif s.get("outcome") == "shed":
                monitor.record_shed(last_t, str(s.get("reason", "")))
        slo = monitor.evaluate(last_t).to_dict()
    return format_top(slo, samples[-tail:], totals=totals, source=source)


def run_top(
    path: str,
    follow: bool = False,
    interval_s: float = 2.0,
    max_frames: int | None = None,
    out: t.Callable[[str], None] = print,
) -> int:
    """Render the dashboard from a telemetry.jsonl file; returns frames shown.

    ``follow=False`` renders the current file contents once.  With
    ``follow=True`` the file is re-read every ``interval_s`` seconds
    until interrupted (or ``max_frames`` frames were shown) — the writer
    flushes per record, so this tails a live server.
    """
    import time as _time

    from ..observability.telemetry import read_telemetry

    frames = 0
    while True:
        try:
            records = read_telemetry(path)
        except FileNotFoundError:
            records = []
        if records:
            out(_frame_from_records(records, source=path))
        else:
            out(f"repro top — waiting for telemetry at {path}")
        frames += 1
        if not follow or (max_frames is not None and frames >= max_frames):
            return frames
        try:
            _time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return frames
