"""Boolean retrieval with Falcon-style keyword relaxation.

"Falcon currently uses a Boolean IR system, hence documents and paragraphs
are not ranked after the PR phase" (Section 2.1).  The query is the AND of
the selected keywords; when the conjunction matches too few documents the
engine *relaxes* — drops the lowest-priority keyword — and retries, the
LASSO/Falcon retrieval loop.

Two hot-path optimizations (both behaviour-preserving):

* conjunctions intersect **sorted posting arrays smallest-first with
  galloping binary search** instead of materializing a Python set per
  stem — the classic small-vs-large adaptive intersection of web search
  engines (cs/0407053);
* a **bounded LRU conjunction cache** keyed by the ordered stem tuple of
  the active keywords memoizes conjunction results, so relaxation rounds
  of repeated (Zipf-popular) questions reuse sub-conjunctions instead of
  rescanning posting lists (query-result caching, arXiv:1006.5059).

Both operate directly on the index's packed id arrays: posting lists are
read-only sorted doc-id views sliced out of one flat buffer, and the
paragraph keyword-quorum filter probes the flat per-paragraph stem-id
runs by binary search instead of comparing string sets.

The engine reports, along with its results, the work it performed
(postings scanned, document bytes read) so the simulation's cost model can
charge realistic disk time for each sub-collection.  **Cached hits charge
the same logical work as a cold evaluation** — the cost model measures the
work the paper's system would do, not our memoization shortcuts — so
Table 3 resource weights and the PR cost model are unchanged.
"""

from __future__ import annotations

import typing as t
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass

from ..nlp.keywords import Keyword
from .inverted_index import CollectionIndex
from .paragraphs import Paragraph

__all__ = ["RetrievalResult", "BooleanRetriever", "SharedPostings"]


class SharedPostings:
    """Batch-scoped posting-list fetch sharing for one sub-collection.

    While a batch is active (:meth:`BooleanRetriever.begin_batch`), every
    posting-list resolution goes through this map, so distinct questions
    sharing a stem — the common case under a Zipf question stream —
    resolve each stem's postings against the index once per batch.  The
    views themselves are the index's read-only memoryview slices; sharing
    them is free and cannot change results.  ``fetches``/``shared`` feed
    the ``retrieval.batch.*`` sharing-factor metrics.
    """

    __slots__ = ("views", "fetches", "shared")

    def __init__(self) -> None:
        self.views: dict[str, memoryview] = {}
        self.fetches = 0
        self.shared = 0


@dataclass(slots=True)
class RetrievalResult:
    """Outcome of retrieval against one sub-collection."""

    collection_id: int
    paragraphs: list[Paragraph]
    #: Keywords actually used after relaxation.
    used_keywords: list[Keyword]
    #: Documents that matched the final conjunction.
    matched_docs: list[int]
    #: Work accounting for the cost model.
    postings_scanned: int = 0
    doc_bytes_read: int = 0
    relaxation_rounds: int = 0


def _intersect_sorted(small: t.Sequence[int], large: t.Sequence[int]) -> list[int]:
    """Intersection of two sorted doc-id arrays, probing the larger one.

    Walks the smaller array and advances a binary-search lower bound into
    the larger — O(|small| · log |large|), which beats a linear merge when
    the lists are badly skewed (they usually are, under Zipf).
    """
    out: list[int] = []
    lo = 0
    hi = len(large)
    for x in small:
        lo = bisect_left(large, x, lo, hi)
        if lo == hi:
            break
        if large[lo] == x:
            out.append(x)
            lo += 1
    return out


class _ConjunctionCache:
    """Bounded LRU of conjunction results.

    Values are ``(docs, charged)`` where ``charged`` is the number of
    postings a cold evaluation scans for this key — replayed into the
    caller's accounting on every hit so cached and uncached retrievals
    report identical logical work.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[
            tuple[t.Any, ...], tuple[frozenset[int], int]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple[t.Any, ...]) -> tuple[frozenset[int], int] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple[t.Any, ...], docs: frozenset[int], charged: int) -> None:
        self._entries[key] = (docs, charged)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class BooleanRetriever:
    """Conjunctive Boolean retrieval over one :class:`CollectionIndex`.

    Parameters
    ----------
    index:
        The sub-collection index to search.
    min_docs:
        Relax the query until at least this many documents match (or only
        one keyword is left).
    paragraph_quorum:
        Fraction of the (relaxed) query's keywords a paragraph must contain
        to be extracted.  1.0 reproduces strict Boolean paragraph filtering;
        lower values emulate Falcon's more permissive post-processing.
    conjunction_cache:
        Capacity of the LRU conjunction-result cache (0 disables caching).
    galloping:
        Use sorted-array galloping intersection.  ``False`` falls back to
        the original per-stem set intersection — the reference
        implementation for ``tests/retrieval/test_term_index.py`` and
        ``tests/qa/test_scoring_equivalence.py``.
    """

    def __init__(
        self,
        index: CollectionIndex,
        min_docs: int = 3,
        paragraph_quorum: float = 0.5,
        conjunction_cache: int = 256,
        galloping: bool = True,
    ) -> None:
        if not 0.0 < paragraph_quorum <= 1.0:
            raise ValueError("paragraph_quorum must be in (0, 1]")
        if min_docs < 1:
            raise ValueError("min_docs must be >= 1")
        if conjunction_cache < 0:
            raise ValueError("conjunction_cache must be >= 0")
        self.index = index
        self.min_docs = min_docs
        self.paragraph_quorum = paragraph_quorum
        self.galloping = galloping
        self._cache = (
            _ConjunctionCache(conjunction_cache) if conjunction_cache else None
        )
        self._shared: SharedPostings | None = None

    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the conjunction cache (zeros if off)."""
        if self._cache is None:
            return {"hits": 0, "misses": 0, "size": 0}
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "size": len(self._cache),
        }

    # -- batch hooks --------------------------------------------------------------
    def begin_batch(self, shared: SharedPostings) -> None:
        """Route posting-list fetches through a batch-scoped shared map."""
        self._shared = shared

    def end_batch(self) -> None:
        """Detach the batch-scoped postings map (serial behaviour resumes)."""
        self._shared = None

    def replay_rounds(self, rounds: t.Sequence[tuple[str, ...]]) -> None:
        """Re-touch the conjunction cache as a serial re-run would.

        ``rounds`` is the per-relaxation-round stem-key sequence recorded
        by :meth:`retrieve` (``round_trace``) during a question's first
        execution.  Replaying a duplicate question issues the same cache
        gets — recomputing and re-inserting on a miss, exactly like
        :meth:`_conjunction` — so hit/miss counters, LRU order and
        eviction behaviour stay bit-identical to serial execution while
        the (deterministic) results themselves are reused.
        """
        cache = self._cache
        if cache is None:
            return
        cid = self.index.collection_id
        for stems in rounds:
            if not stems:
                continue
            if cache.get((cid, stems)) is None:
                docs, charged = (
                    self._evaluate_galloping(stems)
                    if self.galloping
                    else self._evaluate_sets(stems)
                )
                cache.put((cid, stems), docs, charged)

    # -- public API ---------------------------------------------------------------
    def retrieve(
        self,
        keywords: t.Sequence[Keyword],
        round_trace: list[tuple[str, ...]] | None = None,
    ) -> RetrievalResult:
        """Run the retrieval loop for ``keywords`` against this collection.

        ``round_trace``, when given, collects the conjunction stem key of
        every relaxation round — the batch engine's replay script for
        duplicate questions (:meth:`replay_rounds`).
        """
        result = RetrievalResult(
            collection_id=self.index.collection_id,
            paragraphs=[],
            used_keywords=[],
            matched_docs=[],
        )
        if not keywords:
            return result

        # Relaxation loop: drop the lowest-priority keyword until enough
        # documents match.
        active = sorted(keywords, key=lambda k: k.priority)
        docs: t.AbstractSet[int] = set()
        while active:
            docs = self._conjunction(active, result, round_trace)
            result.relaxation_rounds += 1
            if len(docs) >= self.min_docs or len(active) == 1:
                break
            active = active[:-1]

        result.used_keywords = list(active)
        result.matched_docs = sorted(docs)
        if not docs:
            return result

        # Paragraph extraction: read matching documents, keep paragraphs
        # meeting the keyword quorum.  A keyword is "present" when every
        # one of its (distinct) stem ids occurs in the paragraph's sorted
        # indexed-stem run — the packed equivalent of the old
        # ``frozenset[str]`` subset test.  A stem the vocabulary has never
        # seen maps to the negative sentinel, which no run contains.
        lookup = self.index.vocab.lookup
        ids_per_kw = [
            tuple({lookup(s) for s in kw.stems}) for kw in active
        ]
        pset = self.index.paragraph_stem_ids
        needed = max(1, int(round(self.paragraph_quorum * len(active))))
        for doc_id in result.matched_docs:
            result.doc_bytes_read += self.index.doc_bytes(doc_id)
            for para, lo, hi in self.index.paragraph_spans(doc_id):
                present = 0
                for kw_ids in ids_per_kw:
                    for tid in kw_ids:
                        j = bisect_left(pset, tid, lo, hi)
                        if j >= hi or pset[j] != tid:
                            break
                    else:
                        present += 1
                if present >= needed:
                    result.paragraphs.append(para)
        return result

    # -- internals ---------------------------------------------------------------
    def _conjunction(
        self,
        active: t.Sequence[Keyword],
        result: RetrievalResult,
        round_trace: list[tuple[str, ...]] | None = None,
    ) -> t.AbstractSet[int]:
        """Docs containing *every* stem of *every* active keyword.

        The stem tuple preserves keyword order and duplicates so that the
        charged ``postings_scanned`` — each active stem's full posting
        list, stopping at the first empty one — is byte-identical to the
        reference implementation's accounting.
        """
        stems = tuple(s for kw in active for s in kw.stems)
        if round_trace is not None:
            round_trace.append(stems)
        if not stems:
            return set()

        if self._cache is not None:
            key = (self.index.collection_id, stems)
            cached = self._cache.get(key)
            if cached is not None:
                docs, charged = cached
                result.postings_scanned += charged
                return docs

        docs, charged = (
            self._evaluate_galloping(stems)
            if self.galloping
            else self._evaluate_sets(stems)
        )
        result.postings_scanned += charged
        if self._cache is not None:
            self._cache.put((self.index.collection_id, stems), docs, charged)
        return docs

    def _fetch_postings(self, stem: str) -> memoryview:
        """One stem's sorted posting view, shared across a batch if active.

        The views are read-only slices of the index's flat posting
        buffer, so serving a repeat fetch from the batch map is pure
        amortization — same object, same contents, same charge.
        """
        shared = self._shared
        if shared is None:
            return self.index.sorted_postings(stem)
        view = shared.views.get(stem)
        if view is not None:
            shared.shared += 1
            return view
        view = self.index.sorted_postings(stem)
        shared.views[stem] = view
        shared.fetches += 1
        return view

    def _evaluate_galloping(
        self, stems: tuple[str, ...]
    ) -> tuple[frozenset[int], int]:
        """Size-ordered sorted-array intersection with galloping probes."""
        charged = 0
        arrays: list[memoryview] = []
        for s in stems:
            postings = self._fetch_postings(s)
            n = len(postings)
            charged += n
            if n == 0:
                return frozenset(), charged
            arrays.append(postings)
        arrays.sort(key=len)
        current: t.Sequence[int] = arrays[0]
        for arr in arrays[1:]:
            current = _intersect_sorted(current, arr)
            if not current:
                break
        return frozenset(current), charged

    def _evaluate_sets(self, stems: tuple[str, ...]) -> tuple[frozenset[int], int]:
        """Reference implementation: per-stem doc sets, smallest-first."""
        charged = 0
        doc_sets: list[set[int]] = []
        for s in stems:
            postings = self._fetch_postings(s)
            charged += len(postings)
            if not len(postings):
                return frozenset(), charged
            doc_sets.append(set(postings))
        if not doc_sets:
            return frozenset(), charged
        doc_sets.sort(key=len)
        docs = doc_sets[0]
        for ds in doc_sets[1:]:
            docs = docs & ds
            if not docs:
                break
        return frozenset(docs), charged
