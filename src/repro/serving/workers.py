"""Worker execution behind the admission queue.

Two interchangeable executors sit behind
:class:`~repro.serving.server.QAServer`:

* :class:`ProcessWorkerPool` — the production shape: N OS processes,
  each running :func:`_worker_main`, which **attaches** to the shared
  packed-index artifact (:mod:`repro.experiments.context`) instead of
  rebuilding tokenize + stem + intern per process.  The parent loads
  nothing: it forks the workers at once, so none inherits a corpus or
  index heap it did not ask for.  On a cold cache the first worker to
  take the cache directory's lock generates, builds and writes the
  artifact, and the others wait for it and attach (one unpickle + id
  remap, ~1/40th of a rebuild); each worker reports whether it attached
  (``"cache"``) or had to build (``"built"``).
* :class:`InlineExecutor` — single-process synchronous execution for
  tests and the ``workers=0`` debug mode; same result surface, no IPC.

Both speak :class:`ExecutionResult`, the completion record the server
folds into ledger + metrics + spans, and both run a dispatched unit
through the same :func:`_execute`.  The wire has one shape per hop: a
**request** is ``(seq, qid, text, submit_wall)``, a **unit** — what one
worker takes in one piece — is a list of requests, and ``submit(unit)``
is the only way to dispatch.  Every unit, of one question or of
eight, runs through one ``QAPipeline.answer_batch`` call, which answers
each distinct question once; a repeat in the unit gets its first
occurrence's answers and zero module timings.  Every reply record
carries the five module timings the worker measured; what
the server draws from them (see ``server.py``) is none of the worker's
business, so nothing about tracing travels on the wire.

The pool surface the server, the loadgen and the tests' fakes rely on
is ``start``, ``submit``, ``poll``, ``drain``, ``stop`` and the
attributes ``idle_workers``, ``workers`` and ``attach_report``.

IPC: requests go out on one shared ``multiprocessing.Queue`` (FIFO
hand-off to whichever worker is free); replies come back on one
``Pipe(duplex=False)`` per worker, written synchronously by that worker
— no feeder thread has to win the GIL from the pipeline.  The parent
registers each reply pipe once, at spawn, with one standing
``selectors.DefaultSelector``; ``start``, ``poll`` and ``drain`` all wait
on it with one ``select`` per call and read one message from each ready
pipe (a reply pipe has no user-space buffer, so a second message makes
the pipe ready again).  A worker sends
three kinds of message: ``ready`` once attached, ``done`` per unit and
``bye`` on the sentinel.  Each unit is answered by exactly one
``("done", [records...])`` message, a record being a plain tuple in
``ExecutionResult`` field order — tiny, picklable, and version-free.
The pool therefore sees every dispatch
and every completion and keeps the count of unfinished units
(:attr:`ProcessWorkerPool.idle_workers`), which is what makes the
server's micro-batcher work-conserving.  EOF on a reply pipe means the
worker died: the pool records its pid in
:attr:`ProcessWorkerPool.lost_workers` and stops waiting for it
(detection only — its in-flight questions end up ``DRAINED``).

Workers keep no metrics of their own: the reply record is all the
server hears about a question.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import selectors
import time
import typing as t
from dataclasses import dataclass
from multiprocessing.connection import Connection

from ..corpus import CorpusConfig

if t.TYPE_CHECKING:  # pragma: no cover
    from ..qa import QAPipeline

__all__ = ["ExecutionResult", "InlineExecutor", "ProcessWorkerPool"]

#: Answers forwarded per question (keeps IPC payloads small).
_MAX_ANSWERS = 3

#: Seconds the spawned workers get to attach and report ready.
_START_TIMEOUT_S = 120.0


#: One question on the wire: ``(seq, qid, text, submit_wall)``.
_Request = t.Tuple[int, int, str, float]

#: Module timings of a question whose pipeline raised.
_NO_TIMINGS = (0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """One completed question, as reported by an executor."""

    seq: int
    qid: int
    answers: tuple[tuple[str, float], ...]
    #: Seconds between submit and the worker starting on this question:
    #: time in the server's micro-batch buffer, in the request queue, and
    #: — for a batch member — the service of the members ahead of it in
    #: its unit, so one worker's service intervals never overlap.
    wait_s: float
    #: Seconds of pipeline execution.
    service_s: float
    worker_pid: int
    error: str = ""
    #: Measured module seconds ``(qp, pr, ps, po, ap)`` inside
    #: ``service_s``; all zero when the pipeline raised, and for a repeat
    #: of a question earlier in its unit.
    timings: tuple[float, float, float, float, float] = _NO_TIMINGS
    #: For a member of a unit longer than one: (batch_size, n_distinct);
    #: ``None`` otherwise.
    batch: tuple[int, int] | None = None


def _digest_answers(answers: t.Sequence[t.Any]) -> tuple[tuple[str, float], ...]:
    """Compress pipeline answers to (text, score) pairs for IPC."""
    return tuple((a.text, float(a.score)) for a in answers[:_MAX_ANSWERS])


def _execute(
    pipeline: "QAPipeline", unit: t.Sequence[_Request], pid: int
) -> list[tuple[t.Any, ...]]:
    """Run one dispatched unit through ``QAPipeline.answer_batch``.

    Returns one record per question, in :class:`ExecutionResult` field
    order (the reply wire format).  A pipeline exception is caught here —
    every question of the unit must still be accounted for — and reported
    in the ``error`` field of each of its records.
    """
    picked_wall = time.time()
    t0 = time.perf_counter()
    binfo = None
    error = ""
    try:
        results = pipeline.answer_batch(
            [req[2] for req in unit], [req[1] for req in unit]
        )
        if len(unit) > 1:
            binfo = (len(unit), pipeline.last_batch_stats.n_distinct)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        results = [None] * len(unit)
    share_s = (time.perf_counter() - t0) / max(1, len(unit))
    records = []
    ahead_s = 0.0  # service of this unit's earlier members: they ran first
    for (seq, qid, _text, submit_wall), r in zip(unit, results):
        if r is None:
            answers, timings, service_s = (), _NO_TIMINGS, share_s
        else:
            tm = r.timings
            answers = _digest_answers(r.answers)
            timings = (tm.qp, tm.pr, tm.ps, tm.po, tm.ap)
            # A lone question is charged the whole measured call, a batch
            # member its own module time (zero for a repeat: nothing ran).
            service_s = share_s if binfo is None else tm.total
        wait_s = max(0.0, picked_wall - submit_wall) + ahead_s
        records.append(
            (seq, qid, answers, wait_s, service_s, pid, error, timings, binfo)
        )
        ahead_s += service_s
    return records


def _worker_main(
    config: CorpusConfig,
    requests: "multiprocessing.queues.Queue[t.Any]",
    replies: Connection,
) -> None:
    """Worker process body: attach, announce readiness, serve until sentinel.

    This process is the only writer of ``replies``, and writes it
    synchronously: one ``("done", records)`` message per dispatched unit.
    """
    from ..experiments.context import build_serving_context

    ctx = build_serving_context(config)
    # The attached corpus and index live as long as the worker: collect
    # once and move them out of the collector's sight, so no full pass
    # over them (tens of ms) lands inside a question's service.
    gc.collect()
    gc.freeze()
    pid = os.getpid()
    replies.send(("ready", pid, ctx.index_source, ctx.index_seconds))
    while True:
        unit = requests.get()
        if unit is None:
            replies.send(("bye", pid))
            return
        replies.send(("done", _execute(ctx.pipeline, unit, pid)))


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap start, inherited env); else the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


class ProcessWorkerPool:
    """N worker processes: one shared request queue, one reply pipe each."""

    def __init__(self, config: CorpusConfig, workers: int) -> None:
        if workers < 1:
            raise ValueError("ProcessWorkerPool needs at least one worker")
        self.config = config
        self.workers = workers
        self._ctx = _pool_context()
        self._requests: multiprocessing.queues.Queue[t.Any] = self._ctx.Queue()
        self._procs: list[multiprocessing.process.BaseProcess] = []
        #: Read end of each live worker's reply pipe -> its pid.  A worker
        #: leaves on ``bye`` or on EOF (a closed pipe is always "ready").
        self._readers: dict[Connection, int] = {}
        #: Every live reader, registered once at spawn.
        self._selector = selectors.DefaultSelector()
        #: Units dispatched and not yet replied to.
        self._outstanding = 0
        #: Pids whose reply pipe hit EOF before ``bye``: the worker died.
        #: Detection only; its in-flight questions never complete.
        self.lost_workers: list[int] = []
        #: Per-worker index provenance, filled by the ready handshake:
        #: {pid: ("cache"|"built", seconds)}.
        self.attach_report: dict[int, tuple[str, float]] = {}

    def start(self) -> None:
        """Spawn the workers and await readiness; the parent loads nothing."""
        for _ in range(self.workers):
            reader, writer = self._ctx.Pipe(duplex=False)
            p = self._ctx.Process(
                target=_worker_main,
                args=(self.config, self._requests, writer),
                daemon=True,
            )
            p.start()
            # The worker holds the only write end, so its death is an EOF.
            writer.close()
            self._procs.append(p)
            self._readers[reader] = p.pid
            self._selector.register(reader, selectors.EVENT_READ)
        deadline = time.monotonic() + _START_TIMEOUT_S
        while len(self.attach_report) < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.lost_workers:
                raise TimeoutError(
                    f"only {len(self.attach_report)}/{self.workers} workers "
                    f"became ready (died: {self.lost_workers})"
                )
            self._receive(remaining)

    @property
    def idle_workers(self) -> int:
        """Live workers beyond the dispatched-and-unfinished units."""
        return max(0, len(self._readers) - self._outstanding)

    def submit(self, unit: t.Sequence[_Request]) -> None:
        """Hand one unit (a list of requests) to whichever worker is free."""
        self._outstanding += 1
        # Copied: the queue's feeder thread pickles it after we return.
        self._requests.put(list(unit))

    def _leave(self, conn: Connection) -> int:
        """Forget a reader; returns its worker's pid.

        Unregistered before it is closed: epoll watches the open file,
        which a later-forked worker's inherited copy keeps alive.
        """
        self._selector.unregister(conn)
        conn.close()
        return self._readers.pop(conn)

    def _receive(self, timeout_s: float) -> list[ExecutionResult]:
        """One message from each reply pipe readable within ``timeout_s``."""
        out: list[ExecutionResult] = []
        for key, _ in self._selector.select(timeout_s):
            conn = key.fileobj
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                self.lost_workers.append(self._leave(conn))
                continue
            if msg[0] == "done":
                self._outstanding -= 1
                out.extend(ExecutionResult(*rec) for rec in msg[1])
            elif msg[0] == "ready":
                self.attach_report[msg[1]] = (msg[2], msg[3])
            elif msg[0] == "bye":
                self._leave(conn)
        return out

    def poll(self) -> list[ExecutionResult]:
        """Collect any completions without blocking."""
        return self._receive(0)

    def drain(self, timeout_s: float) -> list[ExecutionResult]:
        """Send sentinels, then collect completions until every worker left.

        A worker leaves by saying ``bye`` or by dying (EOF), so a lost
        worker is not waited for.  Returns the completions received
        within ``timeout_s``; anything still in flight afterwards is the
        caller's ``DRAINED`` set.
        """
        for _ in self._procs:
            self._requests.put(None)
        out: list[ExecutionResult] = []
        deadline = time.monotonic() + timeout_s
        while self._readers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            out.extend(self._receive(remaining))
        return out

    def stop(self) -> None:
        """Terminate any still-running workers and reap them."""
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(timeout=5.0)
        self._procs.clear()
        for conn in list(self._readers):
            self._leave(conn)
        self._selector.close()


class InlineExecutor:
    """Synchronous in-process execution (``workers=0`` / unit tests).

    Counts as one worker, busy from a dispatch until its completions
    are collected by ``poll``.
    """

    workers = 0

    def __init__(self, pipeline: "QAPipeline") -> None:
        self.pipeline = pipeline
        self._completed: list[ExecutionResult] = []
        self.attach_report: dict[int, tuple[str, float]] = {}

    def start(self) -> None:  # nothing to spawn
        pass

    @property
    def idle_workers(self) -> int:
        return 0 if self._completed else 1

    def submit(self, unit: t.Sequence[_Request]) -> None:
        self._completed.extend(
            ExecutionResult(*rec) for rec in _execute(self.pipeline, unit, 0)
        )

    def poll(self) -> list[ExecutionResult]:
        out, self._completed = self._completed, []
        return out

    def drain(self, timeout_s: float) -> list[ExecutionResult]:
        return self.poll()

    def stop(self) -> None:
        pass
