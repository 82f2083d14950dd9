"""Boolean retrieval with Falcon-style keyword relaxation.

"Falcon currently uses a Boolean IR system, hence documents and paragraphs
are not ranked after the PR phase" (Section 2.1).  The query is the AND of
the selected keywords; when the conjunction matches too few documents the
engine *relaxes* — drops the lowest-priority keyword — and retries, the
LASSO/Falcon retrieval loop.

Two hot-path optimizations (both behaviour-preserving):

* conjunctions intersect **sorted posting arrays smallest-first with
  galloping binary search** — the one intersection path, the classic
  small-vs-large adaptive intersection of web search engines
  (cs/0407053); no Python set is built per stem;
* a **bounded LRU conjunction cache** keyed by the ordered stem tuple of
  the active keywords memoizes conjunction results, so relaxation rounds
  of repeated (Zipf-popular) questions reuse sub-conjunctions instead of
  rescanning posting lists (query-result caching, arXiv:1006.5059).

Both operate directly on the index's packed id arrays: posting lists are
read-only sorted doc-id views sliced out of one flat buffer.  What the
loop needs of a question's keywords — their priority order, each round's
conjunction key, each keyword's distinct stems and every stem's
vocabulary id — is a :class:`RetrievalPlan`, worked out once per
question and read by the retriever of every sub-collection, each of
which turns an id into its posting slot with one array read.  Nothing
here lives for a batch: a batch of questions runs this loop once per
distinct question (:meth:`repro.qa.QAPipeline.answer_batch`).  The
paragraph keyword-quorum filter — Falcon's "post-processing phase to
extract paragraphs from documents" — is posting-list arithmetic too: a
keyword's paragraphs are the intersection of its stems' *paragraph*
postings, and the quorum counts keywords per paragraph ordinal, so no
paragraph is probed one by one.

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
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import chain

from ..nlp.keywords import Keyword
from .inverted_index import CollectionIndex
from .paragraphs import Paragraph

__all__ = ["BooleanRetriever", "RetrievalPlan", "RetrievalResult"]


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


class RetrievalPlan:
    """A question's keywords as the relaxation loop reads them, worked out
    once for every sub-collection the question visits.

    ``active`` holds the keywords in priority order; the round that
    conjoins the first ``m`` of them is keyed ``keys[m]``, their stems in
    order with duplicates kept (the conjunction cache's key).  The stem
    ids behind each key, and behind each keyword's distinct stems, are
    resolved per vocabulary by :meth:`ids` — once per question, since the
    collections share one.
    """

    __slots__ = ("active", "keys", "_distinct", "_vocab", "_ids")

    def __init__(self, keywords: t.Sequence[Keyword]) -> None:
        self.active = sorted(keywords, key=lambda k: k.priority)
        stems: list[str] = []
        self.keys: list[tuple[str, ...]] = [()]
        for kw in self.active:
            stems.extend(kw.stems)
            self.keys.append(tuple(stems))
        self._distinct = [tuple(dict.fromkeys(kw.stems)) for kw in self.active]
        self._vocab: t.Any = None
        self._ids: tuple[tuple[int, ...], list[tuple[int, ...]]] = ((), [])

    def ids(self, vocab: t.Any) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
        """``(ids, per_keyword)`` in ``vocab``: the id of every stem of
        ``keys[-1]``, in order, and the ids of each keyword's distinct
        stems (-1 for a stem ``vocab`` never interned)."""
        if vocab is not self._vocab:
            lookup = vocab.lookup
            self._ids = (
                tuple(lookup(s) for s in self.keys[-1]),
                [tuple(lookup(s) for s in ds) for ds in self._distinct],
            )
            self._vocab = vocab
        return self._ids


def _intersect_sorted(small: t.Sequence[int], large: t.Sequence[int]) -> list[int]:
    """Intersection of two sorted id arrays (doc ids or paragraph
    ordinals), probing the larger one.

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
    """

    def __init__(
        self,
        index: CollectionIndex,
        min_docs: int = 3,
        paragraph_quorum: float = 0.5,
        conjunction_cache: int = 256,
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
        self._cache = (
            _ConjunctionCache(conjunction_cache) if conjunction_cache else None
        )

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

    # -- public API ---------------------------------------------------------------
    def retrieve(self, keywords: t.Sequence[Keyword]) -> RetrievalResult:
        """Run the retrieval loop for ``keywords`` against this collection."""
        return self.run(RetrievalPlan(keywords))

    def run(self, plan: RetrievalPlan) -> RetrievalResult:
        """:meth:`retrieve` for keywords already planned — the loop every
        sub-collection of one question runs off the same plan."""
        result = RetrievalResult(
            collection_id=self.index.collection_id,
            paragraphs=[],
            used_keywords=[],
            matched_docs=[],
        )
        m = len(plan.active)
        if not m:
            return result

        # Relaxation loop: drop the lowest-priority keyword until enough
        # documents match.
        index = self.index
        ids, per_keyword_ids = plan.ids(index.vocab)
        keys = plan.keys
        while True:
            docs = self._conjunction(keys[m], ids, result)
            result.relaxation_rounds += 1
            if len(docs) >= self.min_docs or m == 1:
                break
            m -= 1

        result.used_keywords = plan.active[:m]
        result.matched_docs = sorted(docs)
        if not docs:
            return result

        # Paragraph extraction: read the matched documents, keep the
        # paragraphs meeting the keyword quorum.  A keyword is present in
        # a paragraph when all its stems are, so its paragraphs are the
        # intersection of its stems' paragraph postings.  Ordinals ascend
        # in (doc id, paragraph index) order, which is the output order.
        doc_bytes = index.doc_bytes
        for doc_id in result.matched_docs:
            result.doc_bytes_read += doc_bytes(doc_id)
        per_keyword = list(map(self._keyword_paragraphs, per_keyword_ids[:m]))
        paragraphs = index.paragraphs
        if m == 1:
            # The quorum is 1, and a paragraph holding every stem of the
            # one keyword lies in a document holding them: a matched one.
            ordinals: t.Iterable[int] = per_keyword[0]
        else:
            needed = max(1, int(round(self.paragraph_quorum * m)))
            counts = Counter(chain.from_iterable(per_keyword))
            ordinals = sorted(
                o
                for o, n in counts.items()
                if n >= needed and paragraphs[o].doc_id in docs
            )
        result.paragraphs = [paragraphs[o] for o in ordinals]
        return result

    # -- internals ---------------------------------------------------------------
    def _keyword_paragraphs(self, ids: t.Sequence[int]) -> t.Sequence[int]:
        """Ascending ordinals of the paragraphs holding every stem of a
        keyword, given its distinct stems' ``ids`` (a stem the index has
        never seen holds none)."""
        postings = sorted(map(self.index.id_paragraph_postings, ids), key=len)
        current: t.Sequence[int] = postings[0]
        for arr in postings[1:]:
            if not current:
                break
            current = _intersect_sorted(current, arr)
        return current

    def _conjunction(
        self,
        stems: tuple[str, ...],
        ids: t.Sequence[int],
        result: RetrievalResult,
    ) -> t.AbstractSet[int]:
        """Docs containing *every* stem of *every* active keyword.

        ``stems`` is the round's key in the plan, whose ids lead ``ids``.
        It preserves keyword order and duplicates so that the charged
        ``postings_scanned`` — each active stem's full posting list,
        stopping at the first empty one — depends neither on the order
        the lists are intersected in nor on the cache.
        """
        if not stems:
            return set()

        if self._cache is not None:
            key = (self.index.collection_id, stems)
            cached = self._cache.get(key)
            if cached is not None:
                docs, charged = cached
                result.postings_scanned += charged
                return docs

        docs, charged = self._evaluate(stems, ids)
        result.postings_scanned += charged
        if self._cache is not None:
            self._cache.put((self.index.collection_id, stems), docs, charged)
        return docs

    def _evaluate(
        self, stems: tuple[str, ...], ids: t.Sequence[int]
    ) -> tuple[frozenset[int], int]:
        """Size-ordered sorted-array intersection with galloping probes:
        the docs holding every stem (the ids of ``stems`` lead ``ids``),
        and the postings a cold evaluation charges."""
        charged = 0
        arrays: list[memoryview] = []
        id_postings = self.index.id_postings
        for tid in ids[: len(stems)]:
            postings = id_postings(tid)
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
