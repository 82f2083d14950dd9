"""Shared, bounded stem cache.

Porter stemming is pure and the working vocabulary is small (a Zipfian
corpus re-uses its head words constantly), so the modules that stem per
question or per paragraph — keyword selection and index construction,
including the term view of a paragraph no index holds — hit one
process-wide memo instead of re-deriving stems or growing private
caches.  Before this module existed the index used a module-global cache
while QP/PS/AP called :func:`repro.nlp.porter.stem` raw, and
:class:`~repro.retrieval.collection.IndexedCorpus` built a fresh cache
per corpus.

Two stages no longer stem per question.  PS matches keyword ids on the
paragraph's term view.  AP stems each candidate text once per processor,
for its own-words filter, and keeps the stems beside its entity layer; it
calls :func:`repro.nlp.porter.stem` directly, not this cache, so that
whether a text was seen before cannot change the cache's traffic.  A
question's lookups here are then QP's alone — a function of the
question, which the batch executor's trace replay
(:mod:`repro.qa.batch`) relies on.

The cache is a bounded LRU so that adversarial or very large vocabularies
cannot grow memory without limit.  ``stem()`` lower-cases its input, so
caching on the lower-cased key loses nothing.
"""

from __future__ import annotations

import typing as t
from collections import OrderedDict

from .porter import stem

__all__ = ["StemCache", "SHARED_STEM_CACHE", "cached_stem"]


class StemCache:
    """Memoized Porter stemming with an LRU bound.

    Instances are callable: ``cache("Running") == "run"``.
    """

    def __init__(self, maxsize: int = 1 << 17) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._cache: OrderedDict[str, str] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._trace: list[str] | None = None

    def __call__(self, word: str) -> str:
        if self._trace is not None:
            self._trace.append(word)
        key = word.lower()
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached
        self.misses += 1
        cached = stem(key)
        self._cache[key] = cached
        if len(self._cache) > self.maxsize:
            self._cache.popitem(last=False)
        return cached

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0

    # -- lookup tracing (the batched-execution replay hook) ----------------------
    def start_trace(self) -> None:
        """Begin recording every raw word passed to :meth:`__call__`.

        The batch execution engine (:mod:`repro.qa.batch`) records the
        lookup sequence of a question's first execution; replaying the
        trace for a duplicate question touches this cache — hit/miss
        counters and LRU order included — exactly as re-running the
        question would, without re-deriving any stems downstream.
        """
        self._trace = []

    def stop_trace(self) -> list[str]:
        """Stop recording and return the captured lookup sequence."""
        trace = self._trace if self._trace is not None else []
        self._trace = None
        return trace

    def replay(self, trace: t.Sequence[str]) -> None:
        """Re-issue a recorded lookup sequence against the cache."""
        for word in trace:
            self(word)


#: Process-wide cache shared by QP, indexing, PS and AP.
SHARED_STEM_CACHE = StemCache()


def cached_stem(word: str) -> str:
    """Porter stem of ``word`` through the shared process-wide cache."""
    return SHARED_STEM_CACHE(word)
