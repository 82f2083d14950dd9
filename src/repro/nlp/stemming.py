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

Index construction resolves each distinct surface form once per build
(:func:`repro.retrieval.inverted_index.build_indexes` shares one
surface-form table across the collections it indexes), so a build
consults this cache once per distinct form, not once per word token or
per collection.  After a build the cache holds the same entries it did
when every token was looked up, with far fewer hits.

Two stages no longer stem per question.  PS matches keyword ids on the
paragraph's term view.  AP stems each candidate text once per processor,
for its own-words filter, and keeps the stems beside its entity layer; it
calls :func:`repro.nlp.porter.stem` directly, not this cache, so that
whether a text was seen before cannot change the cache's traffic.  A
question's lookups here are then QP's alone — a function of the
question, so asking it again issues the same lookups again.

The cache is a bounded LRU so that adversarial or very large vocabularies
cannot grow memory without limit.  ``stem()`` lower-cases its input, so
caching on the lower-cased key loses nothing.
"""

from __future__ import annotations

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

    def __call__(self, word: str) -> str:
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


#: Process-wide cache shared by QP, indexing, PS and AP.
SHARED_STEM_CACHE = StemCache()


def cached_stem(word: str) -> str:
    """Porter stem of ``word`` through the shared process-wide cache."""
    return SHARED_STEM_CACHE(word)
