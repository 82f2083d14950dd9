"""Deterministic parallel execution of independent experiment cells.

The experiment suite is a collection of *cells* — (strategy, fault-rate)
pairs, (node-count, seed) pairs, sweep points — that are embarrassingly
parallel: no cell reads another cell's output, exactly like the paper's
SEND/ISEND partitioning of independent work items.  :func:`run_cells`
schedules them on a process pool while preserving the one invariant the
whole reproduction rests on: **parallel output is byte-identical to
serial output**.  Three rules make that hold:

* every cell is simulated in its own fresh ``Environment`` from its own
  explicit seed, so a cell's result is a pure function of its spec;
* results are merged back in *submission order* (``Executor.map``), never
  completion order;
* workers derive any auxiliary randomness through :func:`derive_seed`,
  which hashes with SHA-256 — stable across processes, platforms, and
  ``PYTHONHASHSEED`` values (the builtin ``hash`` is none of those).

The pool prefers the ``fork`` start method: children inherit the
parent's warm ``lru_cache`` of experiment contexts (see
:mod:`repro.experiments.context`), so no worker rebuilds a corpus the
parent already has.  Where ``fork`` is unavailable — or a worker needs a
context the parent never built — the on-disk artifact cache keeps the
cold-start cost to one unpickle per worker: the corpus comes back as a
pickle, and the packed index payload *attaches*
(:func:`repro.retrieval.packing.attach_payload`) instead of re-running
tokenize + stem + intern, so the index is built once per machine rather
than once per process.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import typing as t
from concurrent.futures import ProcessPoolExecutor

__all__ = ["resolve_jobs", "derive_seed", "run_cells"]

C = t.TypeVar("C")
R = t.TypeVar("R")


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``--jobs`` value to a worker count.

    ``None`` and ``1`` mean serial; ``"auto"`` means one worker per CPU;
    an integer (or integer string) is used as given.  Anything below 1
    is rejected.
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def derive_seed(base: int, *parts: object) -> int:
    """Derive a per-cell seed from a base seed and the cell's identity.

    SHA-256 over the reprs, truncated to 63 bits — deterministic across
    processes and platforms, unlike ``hash()``.  Distinct ``parts``
    yield (with overwhelming probability) distinct, uncorrelated seeds.
    """
    payload = repr((base,) + parts).encode("utf-8")
    return int.from_bytes(
        hashlib.sha256(payload).digest()[:8], "big"
    ) & 0x7FFFFFFFFFFFFFFF


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (warm caches, inherited hash seed); else default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def run_cells(
    worker: t.Callable[[C], R],
    cells: t.Sequence[C],
    jobs: int | str | None = None,
) -> list[R]:
    """Run ``worker`` over every cell, returning results in cell order.

    ``worker`` must be a module-level callable and each cell spec
    picklable (the usual process-pool constraints).  With ``jobs`` ≤ 1 —
    or fewer than two cells — everything runs inline in this process:
    the serial path involves no pool, so serial callers pay nothing for
    the parallel capability.

    The result list is always ordered like ``cells``, regardless of
    which worker finished first, which is what keeps parallel reports
    byte-identical to serial ones.
    """
    n_jobs = resolve_jobs(jobs)
    cells = list(cells)
    if n_jobs <= 1 or len(cells) < 2:
        return [worker(cell) for cell in cells]
    n_jobs = min(n_jobs, len(cells))
    with ProcessPoolExecutor(
        max_workers=n_jobs, mp_context=_pool_context()
    ) as pool:
        # Executor.map preserves submission order in its results.
        return list(pool.map(worker, cells))
