"""Stemmed inverted index over one sub-collection — packed, id-coded.

The paper indexes each of the 8 sub-collections separately ("separately
indexed using a Boolean information retrieval system built on top of
Zprise", Section 6).  :class:`CollectionIndex` is our from-scratch
equivalent: document-level postings with term frequencies, plus a
paragraph-level term layer for the paragraph-extraction post-processing
phase and the PS/AP fast paths.

Since the compact-data-plane rewrite, every term is interned to a dense
integer id through the process-wide
:data:`~repro.nlp.vocabulary.SHARED_VOCABULARY` and the index is a
handful of flat ``array`` buffers (:class:`IndexBuffers`) instead of
nested dicts:

* postings are one flat sorted doc-id array plus a parallel tf array,
  sliced per term through an offset table — sorted order is a property
  of the layout, so there is no separate sorted-postings structure;
* each paragraph's term view (:class:`ParagraphTerms`) is a window into
  collection-wide stem-id / token-span / position-order arrays, exposed
  through the same API the dict-based layer had (``tokens``,
  ``stems_at``, ``positions_of``) as lazy views;
* per-paragraph stem *sets* (the Boolean quorum filter) are sorted id
  runs in one flat array, probed by binary search.

Integer-coded flat layouts are how production engines keep per-query
work sub-linear and index bytes small (cs/0407053, arXiv:1006.5059);
here they also make the index ~10x cheaper to (de)serialize than to
rebuild (see :mod:`repro.retrieval.packing`), which is what lets
parallel experiment workers attach to a prebuilt index instead of
re-paying the build per process.

The index also exposes the *cost accounting* hooks the simulation's PR
cost model consumes: posting-list sizes and candidate-document byte counts
(paragraph retrieval is 80 % disk time — Table 3 — so bytes touched is the
natural cost driver).
"""

from __future__ import annotations

import sys
import typing as t
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from ..corpus.generator import Document, SubCollection
from ..nlp.stemming import SHARED_STEM_CACHE, StemCache
from ..nlp.stopwords import is_stopword
from ..nlp.tokenizer import Token, tokenize
from ..nlp.vocabulary import SHARED_VOCABULARY, Vocabulary
from .paragraphs import Paragraph, split_paragraphs

__all__ = [
    "CollectionIndex",
    "StemCache",
    "IndexBuffers",
    "IndexStats",
    "ParagraphTerms",
    "StemSetView",
]

#: Read-only empty doc-id view, returned for unknown stems.
_EMPTY_U32 = memoryview(array("I")).toreadonly()


@dataclass(slots=True)
class IndexBuffers:
    """The flat array buffers one :class:`CollectionIndex` is made of.

    This is the complete serializable state of an index apart from the
    corpus itself (documents and paragraph text are reconstructed from
    the corpus on attach).  All term ids refer to the vocabulary the
    buffers were built against; :mod:`repro.retrieval.packing` remaps
    them when attaching under a vocabulary with different ids.
    """

    #: Paragraph ``p``'s tokens live at ``[t_offsets[p], t_offsets[p+1])``
    #: in ``starts`` / ``lengths`` / ``stem_ids`` / ``order`` / ``sorted_ids``.
    t_offsets: array
    #: Character start of each token within its paragraph's text, and its
    #: length (``"H"`` — tokens are bounded far below 64 KiB).
    starts: array
    lengths: array
    #: Stem id of each token (raw-surface id for non-word tokens).
    stem_ids: array
    #: Paragraph-local token positions, sorted by (stem id, position)
    #: (``"H"`` — paragraphs are bounded far below 64 Ki tokens).
    order: array
    #: ``stem_ids[order[j]]`` — the sorted-by-id view that makes
    #: per-stem position lookup a binary search.
    sorted_ids: array
    #: Paragraph ``p``'s distinct indexed stem ids (sorted) live at
    #: ``[pset_offsets[p], pset_offsets[p+1])`` in ``pset_ids``.
    pset_offsets: array
    pset_ids: array
    #: Posting slot ``s`` covers term ``p_terms[s]`` with sorted doc ids
    #: ``p_docs[p_offsets[s]:p_offsets[s+1]]`` and parallel ``p_tfs``.
    p_terms: array
    p_offsets: array
    p_docs: array
    p_tfs: array

    def nbytes(self) -> int:
        """Total size of all buffers (array headers + payload)."""
        return sum(
            sys.getsizeof(a)
            for a in (
                self.t_offsets, self.starts, self.lengths, self.stem_ids,
                self.order, self.sorted_ids, self.pset_offsets, self.pset_ids,
                self.p_terms, self.p_offsets, self.p_docs, self.p_tfs,
            )
        )


class _TermViews:
    """Read-only views over the paragraph-layer buffers, shared by every
    :class:`ParagraphTerms` of one collection."""

    __slots__ = ("starts", "lengths", "stem_ids", "order", "sorted_ids", "vocab")

    def __init__(self, buffers: IndexBuffers, vocab: Vocabulary) -> None:
        self.starts = memoryview(buffers.starts).toreadonly()
        self.lengths = memoryview(buffers.lengths).toreadonly()
        self.stem_ids = memoryview(buffers.stem_ids).toreadonly()
        self.order = memoryview(buffers.order).toreadonly()
        self.sorted_ids = memoryview(buffers.sorted_ids).toreadonly()
        self.vocab = vocab


class ParagraphTerms:
    """Precomputed term view of one paragraph (the PS/AP fast path).

    A thin window ``[lo, hi)`` into the collection's packed term buffers.
    The API mirrors the old tuple/dict-based layer — ``stems_at[i]`` is
    the Porter stem of token ``i`` for word tokens and the raw surface
    form otherwise, exactly the sequence the naive re-tokenize path
    computes — but nothing is materialized until asked for.  The hot
    paths read the packed arrays directly (``ids_at`` / ``positions_of_id``
    for PS and AP keyword positions, ``token_texts`` / ``token_text`` /
    ``char_span`` for AP's entity layer and answer windows); ``tokens``
    and the string-keyed views are compatibility/debug surfaces, rebuilt
    per call and kept by nobody.
    """

    __slots__ = ("text", "_lo", "_hi", "_views")

    def __init__(self, text: str, lo: int, hi: int, views: _TermViews) -> None:
        self.text = text
        self._lo = lo
        self._hi = hi
        self._views = views

    @property
    def vocab(self) -> Vocabulary:
        return self._views.vocab

    @property
    def n_tokens(self) -> int:
        return self._hi - self._lo

    @property
    def tokens(self) -> tuple[Token, ...]:
        """Token objects with character spans (built per call)."""
        v, text, lo, hi = self._views, self.text, self._lo, self._hi
        return tuple(
            Token(text[s : s + ln], s, s + ln)
            for s, ln in zip(v.starts[lo:hi], v.lengths[lo:hi])
        )

    def token_texts(self) -> list[str]:
        """Surface form of every token, in order (built per call)."""
        v, text, lo, hi = self._views, self.text, self._lo, self._hi
        return [
            text[s : s + ln] for s, ln in zip(v.starts[lo:hi], v.lengths[lo:hi])
        ]

    def token_text(self, i: int) -> str:
        """Surface form of token ``i``."""
        v, k = self._views, self._lo + i
        start = v.starts[k]
        return self.text[start : start + v.lengths[k]]

    def char_span(self, i: int, j: int) -> tuple[int, int]:
        """Character span ``(start, end)`` covered by tokens ``[i, j)``."""
        v, last = self._views, self._lo + j - 1
        return v.starts[self._lo + i], v.starts[last] + v.lengths[last]

    @property
    def stems_at(self) -> tuple[str, ...]:
        """The stemmed token sequence, as strings (built per call)."""
        v = self._views
        return v.vocab.terms(v.stem_ids[self._lo : self._hi])

    @property
    def positions(self) -> dict[str, tuple[int, ...]]:
        """``{stem: sorted token positions}`` — compatibility view."""
        v = self._views
        out: dict[str, tuple[int, ...]] = {}
        lo, hi = self._lo, self._hi
        j = lo
        while j < hi:
            tid = v.sorted_ids[j]
            k = bisect_right(v.sorted_ids, tid, j, hi)
            out[v.vocab.term(tid)] = tuple(v.order[j:k])
            j = k
        return out

    def ids_at(self, i: int, length: int) -> memoryview:
        """Stem ids of tokens ``[i, i + length)`` (paragraph-local)."""
        return self._views.stem_ids[self._lo + i : self._lo + i + length]

    def positions_of_id(self, tid: int) -> tuple[int, ...]:
        """Token positions whose stem id is ``tid`` (empty if absent)."""
        v = self._views
        lo = bisect_left(v.sorted_ids, tid, self._lo, self._hi)
        hi = bisect_right(v.sorted_ids, tid, lo, self._hi)
        return tuple(v.order[lo:hi])

    def positions_of(self, stem_: str) -> tuple[int, ...]:
        """Token positions whose stem equals ``stem_`` (empty if absent)."""
        tid = self._views.vocab.lookup(stem_)
        if tid < 0:
            return ()
        return self.positions_of_id(tid)


class StemSetView(AbstractSet):
    """Immutable set-of-stems view over a sorted id run (quorum filter).

    Compares and intersects like a ``frozenset[str]`` through the
    :class:`collections.abc.Set` mixins, but stores nothing: membership
    is a vocabulary lookup plus a binary search into the collection's
    flat ``pset_ids`` buffer.
    """

    __slots__ = ("_ids", "_lo", "_hi", "_vocab")

    def __init__(
        self, ids: memoryview, lo: int, hi: int, vocab: Vocabulary
    ) -> None:
        self._ids = ids
        self._lo = lo
        self._hi = hi
        self._vocab = vocab

    @classmethod
    def _from_iterable(cls, it: t.Iterable[str]) -> frozenset:
        return frozenset(it)

    def __contains__(self, stem_: object) -> bool:
        if not isinstance(stem_, str):
            return False
        tid = self._vocab.lookup(stem_)
        j = bisect_left(self._ids, tid, self._lo, self._hi)
        return tid >= 0 and j < self._hi and self._ids[j] == tid

    def __iter__(self) -> t.Iterator[str]:
        term = self._vocab.term
        return (term(tid) for tid in self._ids[self._lo : self._hi])

    def __len__(self) -> int:
        return self._hi - self._lo


@dataclass(frozen=True, slots=True)
class IndexStats:
    """Size statistics used by the PR cost model and the memory gauges."""

    n_documents: int
    n_paragraphs: int
    n_postings: int
    text_bytes: int
    #: Actual resident bytes of the packed index structures (buffers,
    #: lookup dicts, paragraph views) — excludes corpus text/documents.
    memory_bytes: int = 0

    @property
    def index_bytes(self) -> int:
        """Approximate on-disk index size (8 bytes per posting)."""
        return 8 * self.n_postings


def _build_buffers(
    collection: SubCollection, stem_fn: StemCache, vocab: Vocabulary
) -> IndexBuffers:
    """Tokenize, stem, and intern one sub-collection into flat buffers."""
    t_offsets = array("I", (0,))
    starts = array("I")
    lengths = array("H")
    stem_ids = array("i")
    order = array("H")
    sorted_ids = array("i")
    pset_offsets = array("I", (0,))
    pset_ids = array("i")
    #: term id -> ([doc ids], [tfs]); docs arrive in ascending id order.
    postings: dict[int, tuple[list[int], list[int]]] = {}
    intern = vocab.intern
    for doc in collection.documents:
        doc_counts: dict[int, int] = {}
        for para in split_paragraphs(doc.doc_id, collection.collection_id, doc.text):
            ids: list[int] = []
            pset: set[int] = set()
            for tok in tokenize(para.text):
                text = tok.text
                tid = intern(stem_fn(text) if tok.is_word else text)
                ids.append(tid)
                starts.append(tok.start)
                lengths.append(tok.end - tok.start)
                if not tok.is_word and not text[0].isdigit():
                    continue
                if is_stopword(text):
                    continue
                pset.add(tid)
                doc_counts[tid] = doc_counts.get(tid, 0) + 1
            stem_ids.extend(ids)
            # Stable sort by id keeps equal-id positions ascending, so a
            # stem's position run is sorted — the invariant positions_of
            # relies on.
            loc = sorted(range(len(ids)), key=ids.__getitem__)
            order.extend(loc)
            sorted_ids.extend(ids[j] for j in loc)
            pset_ids.extend(sorted(pset))
            pset_offsets.append(len(pset_ids))
            t_offsets.append(len(stem_ids))
        for tid, tf in doc_counts.items():
            slot = postings.get(tid)
            if slot is None:
                slot = postings[tid] = ([], [])
            slot[0].append(doc.doc_id)
            slot[1].append(tf)
    p_terms = array("i")
    p_offsets = array("I", (0,))
    p_docs = array("I")
    p_tfs = array("I")
    for tid, (docs, tfs) in postings.items():
        p_terms.append(tid)
        p_docs.extend(docs)
        p_tfs.extend(tfs)
        p_offsets.append(len(p_docs))
    return IndexBuffers(
        t_offsets=t_offsets, starts=starts, lengths=lengths, stem_ids=stem_ids,
        order=order, sorted_ids=sorted_ids, pset_offsets=pset_offsets,
        pset_ids=pset_ids, p_terms=p_terms, p_offsets=p_offsets,
        p_docs=p_docs, p_tfs=p_tfs,
    )


class CollectionIndex:
    """Boolean inverted index of one sub-collection (packed layout)."""

    def __init__(
        self,
        collection: SubCollection,
        stemmer: StemCache | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        self.collection_id = collection.collection_id
        self._stem = stemmer or SHARED_STEM_CACHE
        self.vocab = vocabulary or SHARED_VOCABULARY
        self._attach(collection, _build_buffers(collection, self._stem, self.vocab))

    @classmethod
    def from_buffers(
        cls,
        collection: SubCollection,
        buffers: IndexBuffers,
        stemmer: StemCache | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> CollectionIndex:
        """Attach to prebuilt buffers instead of tokenizing the collection.

        The buffers' ids must be valid in ``vocabulary`` (the caller —
        :mod:`repro.retrieval.packing` — remaps first when they are not).
        Raises :class:`ValueError` if the buffers do not fit the
        collection's document/paragraph shape.
        """
        self = cls.__new__(cls)
        self.collection_id = collection.collection_id
        self._stem = stemmer or SHARED_STEM_CACHE
        self.vocab = vocabulary or SHARED_VOCABULARY
        self._attach(collection, buffers)
        return self

    def _attach(self, collection: SubCollection, buffers: IndexBuffers) -> None:
        """Derive all runtime views and lookup tables from ``buffers``."""
        self.buffers = buffers
        # Lazily-built term-statistic sketch (repro.retrieval.selection);
        # payload attach pre-populates it when the artifact carries one.
        self._sketch = None
        self._views = _TermViews(buffers, self.vocab)
        self._pset = memoryview(buffers.pset_ids).toreadonly()
        self._p_docs = memoryview(buffers.p_docs).toreadonly()
        self._p_tfs = memoryview(buffers.p_tfs).toreadonly()
        self._p_offsets = buffers.p_offsets
        # Flat stem-id -> posting-slot table (-1 = no postings): the id
        # space is dense, so an array beats a dict by ~4x resident bytes.
        p_terms = buffers.p_terms
        slots = array("i", [-1]) * ((max(p_terms) + 1) if p_terms else 0)
        for slot, tid in enumerate(p_terms):
            slots[tid] = slot
        self._posting_slot: array = slots
        self._documents: dict[int, Document] = {}
        #: doc_id -> ((paragraph, pset lo, pset hi), ...)
        self._doc_paragraphs: dict[int, tuple[tuple[Paragraph, int, int], ...]] = {}
        self._paragraph_terms: dict[tuple[int, int], ParagraphTerms] = {}
        t_offsets = buffers.t_offsets
        pset_offsets = buffers.pset_offsets
        n_paras = len(t_offsets) - 1
        text_bytes = 0
        ordinal = 0
        for doc in collection.documents:
            self._documents[doc.doc_id] = doc
            text_bytes += doc.size_bytes
            entries: list[tuple[Paragraph, int, int]] = []
            for para in split_paragraphs(doc.doc_id, self.collection_id, doc.text):
                if ordinal >= n_paras:
                    raise ValueError(
                        "index buffers hold fewer paragraphs than the corpus"
                    )
                self._paragraph_terms[para.key] = ParagraphTerms(
                    para.text,
                    t_offsets[ordinal],
                    t_offsets[ordinal + 1],
                    self._views,
                )
                entries.append(
                    (para, pset_offsets[ordinal], pset_offsets[ordinal + 1])
                )
                ordinal += 1
            self._doc_paragraphs[doc.doc_id] = tuple(entries)
        if ordinal != n_paras:
            raise ValueError(
                f"index buffers hold {n_paras} paragraphs, corpus has {ordinal}"
            )
        self.stats = IndexStats(
            n_documents=len(self._documents),
            n_paragraphs=n_paras,
            n_postings=len(buffers.p_docs),
            text_bytes=text_bytes,
            memory_bytes=self._memory_bytes(),
        )

    def _memory_bytes(self) -> int:
        """Resident bytes of the index-owned structures (not the corpus)."""
        total = self.buffers.nbytes()
        total += sum(
            sys.getsizeof(o)
            for o in (
                self._views, self._pset, self._p_docs, self._p_tfs,
                self._posting_slot, self._documents, self._doc_paragraphs,
                self._paragraph_terms,
            )
        )
        total += sum(
            sys.getsizeof(mv)
            for mv in (
                self._views.starts, self._views.lengths, self._views.stem_ids,
                self._views.order, self._views.sorted_ids,
            )
        )
        if self._paragraph_terms:
            pt = next(iter(self._paragraph_terms.values()))
            total += len(self._paragraph_terms) * sys.getsizeof(pt)
        for entries in self._doc_paragraphs.values():
            total += sys.getsizeof(entries) + sum(
                sys.getsizeof(e) for e in entries
            )
        return total

    # -- lookups ---------------------------------------------------------------
    def _slot(self, stem_: str) -> int | None:
        tid = self.vocab.lookup(stem_)
        if tid < 0 or tid >= len(self._posting_slot):
            return None
        slot = self._posting_slot[tid]
        return slot if slot >= 0 else None

    def document_frequency(self, stem_: str) -> int:
        """Number of documents containing ``stem_``."""
        slot = self._slot(stem_)
        if slot is None:
            return 0
        off = self._p_offsets
        return off[slot + 1] - off[slot]

    def postings(self, stem_: str) -> dict[int, int]:
        """doc_id -> tf mapping for ``stem_`` (empty dict if absent).

        Built per call from the packed arrays; this is the reference /
        compatibility surface, not the hot path (which slices
        :meth:`sorted_postings` views directly).
        """
        slot = self._slot(stem_)
        if slot is None:
            return {}
        lo, hi = self._p_offsets[slot], self._p_offsets[slot + 1]
        return dict(zip(self._p_docs[lo:hi], self._p_tfs[lo:hi]))

    def sorted_postings(self, stem_: str) -> memoryview:
        """Sorted doc-id array for ``stem_`` (empty view if absent).

        The returned view is read-only — sharing the internal buffer is
        safe by construction.
        """
        slot = self._slot(stem_)
        if slot is None:
            return _EMPTY_U32
        return self._p_docs[self._p_offsets[slot] : self._p_offsets[slot + 1]]

    def posting_bytes(self, stem_: str) -> int:
        """Approximate bytes read to scan this stem's posting list."""
        return 8 * self.document_frequency(stem_)

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def doc_bytes(self, doc_id: int) -> int:
        return self._documents[doc_id].size_bytes

    def paragraph_spans(
        self, doc_id: int
    ) -> tuple[tuple[Paragraph, int, int], ...]:
        """Paragraphs of a document with their ``pset_ids`` spans.

        The packed accessor the Boolean quorum filter uses: each entry is
        ``(paragraph, lo, hi)`` where ``paragraph_stem_ids[lo:hi]`` is the
        paragraph's sorted distinct indexed stem ids.
        """
        return self._doc_paragraphs[doc_id]

    @property
    def paragraph_stem_ids(self) -> memoryview:
        """Flat sorted-run stem-id buffer behind :meth:`paragraph_spans`."""
        return self._pset

    def paragraphs_of(
        self, doc_id: int
    ) -> tuple[tuple[Paragraph, StemSetView], ...]:
        """Paragraphs of a document with their stem sets (immutable views)."""
        pset, vocab = self._pset, self.vocab
        return tuple(
            (para, StemSetView(pset, lo, hi, vocab))
            for para, lo, hi in self._doc_paragraphs[doc_id]
        )

    def paragraph_terms(self, key: tuple[int, int]) -> ParagraphTerms | None:
        """Precomputed term view for paragraph ``key`` (``(doc_id, index)``)."""
        return self._paragraph_terms.get(key)

    @property
    def doc_ids(self) -> t.KeysView[int]:
        return self._documents.keys()

    def vocabulary_size(self) -> int:
        return len(self.buffers.p_terms)

    def iter_terms(self) -> t.Iterator[tuple[str, int]]:
        """(stem, document frequency) pairs, in posting-slot order."""
        off = self._p_offsets
        term = self.vocab.term
        for slot, tid in enumerate(self.buffers.p_terms):
            yield term(tid), off[slot + 1] - off[slot]
