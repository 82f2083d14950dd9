"""Federated collection selection: prune the PR fan-out with term sketches.

Every question used to broadcast paragraph retrieval to all 8
sub-collections even though, for most keyword conjunctions, most
collections cannot contribute a single paragraph — and PR is the paper's
disk-dominated bottleneck (80 % disk time, Table 3).  Query-mediator
systems solve this at the broker: keep compact per-collection term
statistics and route each query only to the collections that can
contribute ("Using Query Mediators for Distributed Searching in
Federated Digital Libraries"; the same broker->server pruning argument
appears in "Design of a Parallel and Distributed Web Search Engine").

This module is that mediator layer:

* :class:`CollectionSketch` — per-collection term statistics as three
  parallel flat arrays keyed by the interned vocabulary id (sorted stem
  ids, per-stem document frequency, per-stem paragraph frequency) plus
  the collection's document/paragraph counts.  A sketch is derived from
  a :class:`~repro.retrieval.inverted_index.CollectionIndex`'s packed
  buffers and serializes/attaches with the v2 disk-cache artifact
  (:mod:`repro.retrieval.packing` remaps the ids like any other buffer).
* :class:`CollectionSelector` — decides, per question, which collections
  the PR fan-out visits.  It scores collections mediator-style —
  df-weighted keyword coverage with an idf-like rarity weight, zeroed
  when the sketch's paragraph-presence bound says no keyword occurs in
  any paragraph — and keeps the top-k / above-threshold collections.
  Selection may change answers; ``repro experiments ext-selection``
  reports its precision/recall/answer-agreement against exhaustive
  search.

A selection that would come back empty falls back to exhaustive search
(``fallback=True``): the selector may lose recall, never questions.
"""

from __future__ import annotations

import math
import sys
import typing as t
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from ..nlp.keywords import Keyword
from ..nlp.vocabulary import Vocabulary
from .inverted_index import CollectionIndex

__all__ = [
    "CollectionSketch",
    "CollectionSelector",
    "SelectionDecision",
    "build_sketch",
    "sketch_of",
]


@dataclass(frozen=True, slots=True)
class SelectionDecision:
    """One question's routing decision over the sub-collections."""

    n_collections: int
    #: Collections the PR fan-out visits, ascending collection id.
    selected: tuple[int, ...]
    #: Collections skipped, ascending collection id.
    pruned: tuple[int, ...]
    #: Per-collection scores in sketch order.
    scores: tuple[float, ...] = ()
    #: True when an empty selection fell back to exhaustive.
    fallback: bool = False

    @property
    def prune_rate(self) -> float:
        """Fraction of the fan-out this decision avoided."""
        if not self.n_collections:
            return 0.0
        return len(self.pruned) / self.n_collections


class CollectionSketch:
    """Term statistics of one sub-collection, packed as flat arrays.

    ``stem_ids`` is the sorted array of vocabulary ids with at least one
    posting in the collection; ``dfs``/``pfs`` are parallel document and
    paragraph frequencies.  Lookups are binary searches; ids the
    vocabulary has never seen (:data:`~repro.nlp.vocabulary.MISSING_ID`)
    resolve to frequency zero, matching the retriever's empty-postings
    behaviour for unknown stems.
    """

    __slots__ = (
        "collection_id", "stem_ids", "dfs", "pfs",
        "n_documents", "n_paragraphs",
    )

    def __init__(
        self,
        collection_id: int,
        stem_ids: array,
        dfs: array,
        pfs: array,
        n_documents: int,
        n_paragraphs: int,
    ) -> None:
        self.collection_id = collection_id
        self.stem_ids = stem_ids
        self.dfs = dfs
        self.pfs = pfs
        self.n_documents = n_documents
        self.n_paragraphs = n_paragraphs

    def __len__(self) -> int:
        return len(self.stem_ids)

    def nbytes(self) -> int:
        """Resident bytes of the sketch arrays (the mediator's footprint)."""
        return sum(
            sys.getsizeof(a) for a in (self.stem_ids, self.dfs, self.pfs)
        )

    def _slot(self, tid: int) -> int:
        ids = self.stem_ids
        j = bisect_left(ids, tid)
        if tid >= 0 and j < len(ids) and ids[j] == tid:
            return j
        return -1

    def df_by_id(self, tid: int) -> int:
        """Document frequency of vocabulary id ``tid`` (0 if absent)."""
        j = self._slot(tid)
        return self.dfs[j] if j >= 0 else 0

    def pf_by_id(self, tid: int) -> int:
        """Paragraph frequency of vocabulary id ``tid`` (0 if absent)."""
        j = self._slot(tid)
        return self.pfs[j] if j >= 0 else 0

    def remapped(self, mapping: t.Sequence[int]) -> "CollectionSketch":
        """The sketch under a new id numbering (old id -> new id).

        New ids order differently, so the parallel arrays are re-sorted —
        the same invariant restoration :func:`~repro.retrieval.packing`
        applies to the index buffers.
        """
        get = mapping.__getitem__
        loc = sorted(
            range(len(self.stem_ids)),
            key=lambda j: get(self.stem_ids[j]),
        )
        return CollectionSketch(
            collection_id=self.collection_id,
            stem_ids=array("i", (get(self.stem_ids[j]) for j in loc)),
            dfs=array("I", (self.dfs[j] for j in loc)),
            pfs=array("I", (self.pfs[j] for j in loc)),
            n_documents=self.n_documents,
            n_paragraphs=self.n_paragraphs,
        )


def build_sketch(index: CollectionIndex) -> CollectionSketch:
    """Derive a :class:`CollectionSketch` from an index's packed buffers.

    Document frequencies come straight from the posting offset table;
    paragraph frequencies count each id's occurrences across the
    per-paragraph distinct-stem runs (each run holds a paragraph's stem
    ids once, so occurrences == paragraphs containing the stem).
    """
    buffers = index.buffers
    p_terms = buffers.p_terms
    p_offsets = buffers.p_offsets
    loc = sorted(range(len(p_terms)), key=p_terms.__getitem__)
    stem_ids = array("i", (p_terms[j] for j in loc))
    dfs = array("I", (p_offsets[j + 1] - p_offsets[j] for j in loc))
    counts: dict[int, int] = {}
    for tid in buffers.pset_ids:
        counts[tid] = counts.get(tid, 0) + 1
    pfs = array("I", (counts.get(tid, 0) for tid in stem_ids))
    return CollectionSketch(
        collection_id=index.collection_id,
        stem_ids=stem_ids,
        dfs=dfs,
        pfs=pfs,
        n_documents=index.stats.n_documents,
        n_paragraphs=index.stats.n_paragraphs,
    )


def sketch_of(index: CollectionIndex) -> CollectionSketch:
    """The (cached) sketch of ``index`` — built once, reused thereafter."""
    sketch = getattr(index, "_sketch", None)
    if sketch is None:
        sketch = build_sketch(index)
        index._sketch = sketch
    return sketch


def _keyword_ids(
    keywords: t.Sequence[Keyword], vocab: Vocabulary
) -> list[tuple[int, ...]]:
    """Per-keyword stem ids in relaxation order (lowest priority dropped
    last -> the list is sorted by priority, exactly like the retriever's
    ``active`` list)."""
    ordered = sorted(keywords, key=lambda k: k.priority)
    lookup = vocab.lookup
    return [tuple(lookup(s) for s in kw.stems) for kw in ordered]


class CollectionSelector:
    """Routes questions to sub-collections using per-collection sketches.

    Parameters
    ----------
    sketches:
        One :class:`CollectionSketch` per sub-collection (any order; kept
        as given, decisions report ascending collection ids).
    vocab:
        The vocabulary the sketch ids refer to (keyword stems are looked
        up here; unknown stems have frequency zero everywhere).
    top_k:
        Keep at most this many collections (None = no count cutoff).
    threshold:
        Drop collections scoring below this fraction of the best score
        (0.0 keeps every positive-scoring collection).
    """

    def __init__(
        self,
        sketches: t.Sequence[CollectionSketch],
        vocab: Vocabulary,
        top_k: int | None = None,
        threshold: float = 0.0,
    ) -> None:
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.sketches = list(sketches)
        self.vocab = vocab
        self.top_k = top_k
        self.threshold = threshold
        self._total_docs = sum(sk.n_documents for sk in self.sketches)

    @property
    def n_collections(self) -> int:
        return len(self.sketches)

    def sketch_bytes(self) -> int:
        """Total resident bytes of the mediator's sketches."""
        return sum(sk.nbytes() for sk in self.sketches)

    def _rarity(self, kw: tuple[int, ...]) -> float:
        """Idf-like weight of a keyword: rarer (corpus-wide) weighs more."""
        gdf = max(
            (
                sum(sk.df_by_id(tid) for sk in self.sketches)
                for tid in kw
            ),
            default=0,
        )
        return math.log(1.0 + self._total_docs / (1.0 + gdf))

    def _score(self, kw_ids: list[tuple[int, ...]], sk: CollectionSketch) -> float:
        """Df-weighted keyword coverage of one collection.

        Zero when the paragraph-presence bound proves no keyword occurs
        in any of the collection's paragraphs — such a collection cannot
        pass the quorum filter even after full relaxation.
        """
        if not sk.n_documents:
            return 0.0
        score = 0.0
        any_paragraph_present = False
        for kw in kw_ids:
            best_df = max((sk.df_by_id(tid) for tid in kw), default=0)
            if not best_df:
                continue
            if any(sk.pf_by_id(tid) > 0 for tid in kw):
                any_paragraph_present = True
            score += self._rarity(kw) * best_df / sk.n_documents
        return score if any_paragraph_present else 0.0

    def select(self, keywords: t.Sequence[Keyword]) -> SelectionDecision:
        """Decide which collections the PR fan-out should visit."""
        kw_ids = _keyword_ids(keywords, self.vocab)
        scores = tuple(self._score(kw_ids, sk) for sk in self.sketches)
        best = max(scores, default=0.0)
        cutoff = self.threshold * best
        candidates = [
            (scores[i], sk.collection_id)
            for i, sk in enumerate(self.sketches)
            if scores[i] > 0.0 and scores[i] >= cutoff
        ]
        candidates.sort(key=lambda sc: (-sc[0], sc[1]))
        if self.top_k is not None:
            candidates = candidates[: self.top_k]
        selected = sorted(cid for _, cid in candidates)
        all_ids = sorted(sk.collection_id for sk in self.sketches)
        fallback = not selected
        if fallback:
            # The stems hit no collection at all: fall back to exhaustive
            # search rather than answering from nothing.
            selected = all_ids
        keep = set(selected)
        return SelectionDecision(
            n_collections=len(self.sketches),
            selected=tuple(selected),
            pruned=tuple(cid for cid in all_ids if cid not in keep),
            scores=scores,
            fallback=fallback,
        )
