"""Shared scheduling-key helper: the ``(*key, seq, payload)`` tiebreak.

Every priority queue in the simulator orders entries by a numeric key with
a monotonically increasing sequence number appended as the tiebreak, so

* entries with equal keys pop in insertion order (FIFO), and
* the payload object itself is never compared (events and jobs do not
  define ``__lt__``).

Historically the event queue in :mod:`repro.simulation.engine` and the
fair-share completion heap in :mod:`repro.simulation.resources` each
open-coded this idiom with their own ``itertools.count``.  :class:`SeqHeap`
is now the single owner of the entry layout.
"""

from __future__ import annotations

import heapq
import itertools
import typing as t

__all__ = ["SeqHeap"]


class SeqHeap:
    """A binary heap of ``(*key, seq, payload)`` entries.

    ``entries`` is a public ``heapq`` list so hot loops (the engine's
    inlined :meth:`~repro.simulation.engine.Environment.run` drains, the
    resource stale-entry sweeps) can read the head without a call; the
    entry layout — key fields first, then ``seq``, then the payload last —
    is the contract those loops rely on.
    """

    __slots__ = ("entries", "_seq")

    def __init__(self) -> None:
        self.entries: list[tuple] = []
        self._seq = itertools.count()

    def push(self, payload: object, *key: t.Any) -> None:
        """Insert ``payload`` ordered by ``key`` (FIFO among equal keys)."""
        heapq.heappush(self.entries, key + (next(self._seq), payload))

    def pop(self) -> tuple:
        """Pop and return the smallest full entry ``(*key, seq, payload)``."""
        return heapq.heappop(self.entries)

    def peek_when(self) -> float:
        """First key field of the head entry (``inf`` when empty)."""
        entries = self.entries
        return entries[0][0] if entries else float("inf")

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)
