"""Stemmed inverted index over one sub-collection — packed, id-coded.

The paper indexes each of the 8 sub-collections separately ("separately
indexed using a Boolean information retrieval system built on top of
Zprise", Section 6).  :class:`CollectionIndex` is our from-scratch
equivalent: document-level postings with term frequencies, paragraph-level
postings for the paragraph-extraction post-processing phase, and a
paragraph term layer that PS and AP read every paragraph through.

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
  ``stems_at``, ``positions``) as lazy views, plus one id-coded
  keyword-position kernel (``keyword_positions``);
* paragraph postings (the Boolean quorum filter) share the document
  postings' slots: slot ``s`` lists, in ascending order, the ordinals of
  the paragraphs holding its stem — the document-partitioned index
  carried down to the paragraph, the unit PR returns.  Ordinals follow
  ``collection.documents`` order, which is ascending doc id, so ordinal
  order is PR's output order.

Integer-coded flat layouts are how production engines keep per-query
work sub-linear and index bytes small (cs/0407053, arXiv:1006.5059);
here they also make the index ~10x cheaper to (de)serialize than to
rebuild (see :mod:`repro.retrieval.packing`), which is what lets
parallel experiment workers attach to a prebuilt index instead of
re-paying the build per process.

The build itself does per-token work in C and per-distinct-value work
in Python, the way integer-coded indexes are built in bulk rather than
token by token (cs/0407053): one ``re.split`` per paragraph gives its
surface forms and spans (:func:`~repro.nlp.tokenizer.split_tokens`),
each distinct surface form is stemmed, interned and classified once per
collection, and the postings rows are grouped into their slots by one
stable sort per collection.  Its output is byte-identical to the
token-by-token build it replaced (kept in ``tests/reference.py``).

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
from collections import Counter
from dataclasses import dataclass
from itertools import compress, filterfalse, repeat
from operator import itemgetter

import numpy as np

from ..corpus.generator import Document, SubCollection
from ..nlp.stemming import SHARED_STEM_CACHE, StemCache
from ..nlp.stopwords import is_stopword
from ..nlp.tokenizer import Token, split_tokens
from ..nlp.vocabulary import SHARED_VOCABULARY, Vocabulary
from .paragraphs import Paragraph, split_paragraphs

__all__ = [
    "CollectionIndex",
    "StemCache",
    "IndexBuffers",
    "IndexStats",
    "ParagraphTerms",
]

#: Read-only empty doc-id / paragraph-ordinal view, returned for unknown stems.
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
    #: Posting slot ``s`` covers term ``p_terms[s]`` with sorted doc ids
    #: ``p_docs[p_offsets[s]:p_offsets[s+1]]`` and parallel ``p_tfs``.
    p_terms: array
    p_offsets: array
    p_docs: array
    p_tfs: array
    #: The ascending ordinals of the paragraphs holding term ``p_terms[s]``
    #: are ``pp_ords[pp_offsets[s]:pp_offsets[s+1]]`` (same slots as the
    #: doc postings; no term ids, so a vocabulary remap leaves them alone).
    pp_offsets: array
    pp_ords: array

    def nbytes(self) -> int:
        """Total size of all buffers (array headers + payload)."""
        return sum(
            sys.getsizeof(a)
            for a in (
                self.t_offsets, self.starts, self.lengths, self.stem_ids,
                self.order, self.sorted_ids, self.p_terms, self.p_offsets,
                self.p_docs, self.p_tfs, self.pp_offsets, self.pp_ords,
            )
        )


class _TermViews:
    """Read-only views over the paragraph-layer buffers, shared by every
    :class:`ParagraphTerms` of one collection (weakly referenceable, so a
    per-collection cache can be keyed by it and leave with it)."""

    __slots__ = (
        "starts", "lengths", "stem_ids", "order", "sorted_ids", "vocab",
        "__weakref__",
    )

    def __init__(self, buffers: IndexBuffers, vocab: Vocabulary) -> None:
        self.starts = memoryview(buffers.starts).toreadonly()
        self.lengths = memoryview(buffers.lengths).toreadonly()
        self.stem_ids = memoryview(buffers.stem_ids).toreadonly()
        self.order = memoryview(buffers.order).toreadonly()
        self.sorted_ids = memoryview(buffers.sorted_ids).toreadonly()
        self.vocab = vocab


class ParagraphTerms:
    """Term view of one paragraph: how PS and AP read every paragraph.

    A thin window ``[lo, hi)`` into packed term buffers — the
    collection's, for a paragraph an index holds, or a paragraph's own,
    built by :meth:`from_text`.  ``stems_at[i]`` is the Porter stem of
    token ``i`` for word tokens and the raw surface form otherwise, but
    nothing is materialized until asked for.  The hot paths read the
    packed arrays directly: :meth:`keyword_positions` is PS's and AP's
    one keyword-position kernel (a bisect per keyword, whose cost is the
    keyword's occurrences, not the paragraph's length), and
    ``token_texts`` / ``char_span`` feed AP's entity layer on a
    paragraph's first visit, which it keys by :attr:`views` and
    :attr:`offset`.  ``tokens`` and the string-keyed views are
    compatibility/debug surfaces, rebuilt per call and kept by nobody.
    """

    __slots__ = ("text", "_lo", "_hi", "_views")

    def __init__(self, text: str, lo: int, hi: int, views: _TermViews) -> None:
        self.text = text
        self._lo = lo
        self._hi = hi
        self._views = views

    @classmethod
    def from_text(cls, text: str) -> ParagraphTerms:
        """The view of a paragraph no index holds, built the way the
        indexer builds one.

        Its ids come from a vocabulary of its own: interning into the
        shared one in the middle of a question would leave every
        resolver's memo of that vocabulary stale.
        """
        buffers, vocab = _new_buffers(), Vocabulary()
        _append_paragraph(buffers, text, {}, SHARED_STEM_CACHE, vocab.intern)
        return cls(text, 0, buffers.t_offsets[1], _TermViews(buffers, vocab))

    @property
    def vocab(self) -> Vocabulary:
        return self._views.vocab

    @property
    def views(self) -> _TermViews:
        """The term buffers this view is a window into: shared by every
        paragraph of a collection, a paragraph's own for :meth:`from_text`."""
        return self._views

    @property
    def offset(self) -> int:
        """Where this paragraph's tokens start in :attr:`views`."""
        return self._lo

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

    def keyword_positions(
        self, resolved: t.Sequence[tuple[int, t.Any, bool]]
    ) -> list[list[int]]:
        """Ascending token positions of each keyword in this paragraph.

        ``resolved`` holds one ``(head_id, phrase_ids, resolvable)`` per
        keyword, as :meth:`repro.qa.paragraph_scoring.KeywordIdResolver.resolve`
        makes them for :attr:`vocab`.  A keyword's head-stem occurrences
        are its run in the id-sorted view: one ``bisect_left`` finds where
        the run would start, a single occurrence is one more read, and a
        ``bisect_right`` is paid only for a run longer than that.  A
        phrase keyword keeps the occurrences whose next stem ids match its
        own, compared as an id slice.  A stem the vocabulary never
        interned occurs nowhere.
        """
        v, lo, hi = self._views, self._lo, self._hi
        sorted_ids = v.sorted_ids
        out: list[list[int]] = []
        for head, kids, ok in resolved:
            a = bisect_left(sorted_ids, head, lo, hi) if ok else hi
            if a == hi or sorted_ids[a] != head:
                out.append([])
                continue
            if a + 1 == hi or sorted_ids[a + 1] != head:
                run = [v.order[a]]  # a single occurrence: one read
            else:
                run = v.order[a : bisect_right(sorted_ids, head, a, hi)].tolist()
            if kids is not None:
                stem_ids, klen = v.stem_ids, len(kids)
                run = [
                    i
                    for i in run
                    if lo + i + klen <= hi
                    and stem_ids[lo + i : lo + i + klen] == kids
                ]
            out.append(run)
        return out


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


def _new_buffers() -> IndexBuffers:
    """Empty buffers, ready to be appended to."""
    return IndexBuffers(
        t_offsets=array("I", (0,)), starts=array("I"), lengths=array("H"),
        stem_ids=array("i"), order=array("H"), sorted_ids=array("i"),
        p_terms=array("i"), p_offsets=array("I", (0,)), p_docs=array("I"),
        p_tfs=array("I"), pp_offsets=array("I", (0,)), pp_ords=array("I"),
    )


#: A surface form's resolution: its term id, and whether it is indexed.
_Resolved = tuple[int, bool]
_tid, _keep = itemgetter(0), itemgetter(1)


def _append_paragraph(
    buffers: IndexBuffers,
    text: str,
    memo: dict[str, _Resolved],
    stem_fn: StemCache,
    intern: t.Callable[[str], int],
) -> list[int]:
    """Tokenize, stem and intern one paragraph onto the term layer of
    ``buffers`` (the one place a paragraph is tokenized).

    ``memo`` maps each surface form already seen under ``intern`` to its
    term id — the stem's for a word, the raw form's otherwise — and
    whether it is indexed: a word or number that is not a stopword.  A
    form is resolved once, when it first occurs; new forms are resolved
    in first-occurrence order, so ids are interned in the order a
    token-by-token pass interns them.  Everything per token is a C-level
    ``map`` / ``compress`` / ``extend``.

    Returns the ids of its indexed tokens in token order, repeats kept.
    """
    forms, starts, lengths = split_tokens(text)
    for form in filterfalse(memo.__contains__, dict.fromkeys(forms)):
        is_word = form[0].isalpha()
        memo[form] = (
            intern(stem_fn(form) if is_word else form),
            (is_word or form[0].isdigit()) and not is_stopword(form),
        )
    resolved = list(map(memo.__getitem__, forms))
    ids = list(map(_tid, resolved))
    buffers.starts.fromlist(starts)
    buffers.lengths.fromlist(lengths)
    buffers.stem_ids.fromlist(ids)
    # Stable sort by id keeps equal-id positions ascending, so a stem's
    # position run is sorted — the invariant keyword_positions relies on.
    loc = sorted(range(len(ids)), key=ids.__getitem__)
    buffers.order.fromlist(loc)
    buffers.sorted_ids.fromlist(list(map(ids.__getitem__, loc)))
    buffers.t_offsets.append(len(buffers.stem_ids))
    return list(compress(ids, map(_keep, resolved)))


def _split_documents(collection: SubCollection) -> list[list[Paragraph]]:
    """Each document's paragraphs, in document order."""
    cid = collection.collection_id
    return [
        split_paragraphs(doc.doc_id, cid, doc.text) for doc in collection.documents
    ]


def _u32(values: np.ndarray) -> array:
    """``values`` as an ``array("I")`` (C unsigned int, as ``np.uintc``)."""
    return array("I", values.astype(np.uintc).tobytes())


def _group_by_slot(
    tids: list[int], slot_of: dict[int, int], *columns: list[int]
) -> tuple[array, list[array]]:
    """Group rows ``(tids[r], columns[0][r], ...)`` by the posting slot of
    their term: the slot offsets, and each column in slot order.  The
    sort is stable, so a slot's rows keep the order they were added in."""
    slots = np.fromiter(map(slot_of.__getitem__, tids), np.intp, len(tids))
    perm = np.argsort(slots, kind="stable")
    offsets = np.zeros(len(slot_of) + 1, np.intp)
    np.cumsum(np.bincount(slots, minlength=len(slot_of)), out=offsets[1:])
    return _u32(offsets), [
        _u32(np.array(col, np.intp)[perm]) for col in columns
    ]


def _build_buffers(
    collection: SubCollection,
    doc_paragraphs: list[list[Paragraph]],
    stem_fn: StemCache,
    vocab: Vocabulary,
) -> IndexBuffers:
    """Tokenize, stem, and intern one sub-collection into flat buffers."""
    buffers = _new_buffers()
    memo: dict[str, _Resolved] = {}
    intern = vocab.intern
    #: One row per distinct indexed term of each document (term id, doc
    #: id, tf) and of each paragraph (term id, ordinal), in corpus order:
    #: docs and ordinals ascend, so each slot's rows come out sorted.
    d_tids: list[int] = []
    d_docs: list[int] = []
    d_tfs: list[int] = []
    pp_tids: list[int] = []
    pp_ords: list[int] = []
    ordinal = 0
    for doc, paragraphs in zip(collection.documents, doc_paragraphs):
        # Counter keeps first-occurrence order, the order of the slots.
        doc_counts: Counter[int] = Counter()
        for para in paragraphs:
            indexed = _append_paragraph(buffers, para.text, memo, stem_fn, intern)
            doc_counts.update(indexed)
            distinct = dict.fromkeys(indexed)
            pp_tids.extend(distinct)
            pp_ords.extend(repeat(ordinal, len(distinct)))
            ordinal += 1
        d_tids.extend(doc_counts)
        d_docs.extend(repeat(doc.doc_id, len(doc_counts)))
        d_tfs.extend(doc_counts.values())
    # A term's slot is its first occurrence in the collection.  Every term
    # with paragraph postings has document postings too: both are fed
    # from the same indexed tokens.
    slot_of = {tid: slot for slot, tid in enumerate(dict.fromkeys(d_tids))}
    buffers.p_terms.fromlist(list(slot_of))
    buffers.p_offsets, (buffers.p_docs, buffers.p_tfs) = _group_by_slot(
        d_tids, slot_of, d_docs, d_tfs
    )
    buffers.pp_offsets, (buffers.pp_ords,) = _group_by_slot(
        pp_tids, slot_of, pp_ords
    )
    return buffers


class CollectionIndex:
    """Boolean inverted index of one sub-collection (packed layout)."""

    def __init__(
        self,
        collection: SubCollection,
        stemmer: StemCache | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        self.collection_id = collection.collection_id
        self._stem = SHARED_STEM_CACHE if stemmer is None else stemmer
        self.vocab = SHARED_VOCABULARY if vocabulary is None else vocabulary
        doc_paragraphs = _split_documents(collection)
        buffers = _build_buffers(collection, doc_paragraphs, self._stem, self.vocab)
        self._attach(collection, buffers, doc_paragraphs)

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
        self._stem = SHARED_STEM_CACHE if stemmer is None else stemmer
        self.vocab = SHARED_VOCABULARY if vocabulary is None else vocabulary
        self._attach(collection, buffers, _split_documents(collection))
        return self

    def _attach(
        self,
        collection: SubCollection,
        buffers: IndexBuffers,
        doc_paragraphs: list[list[Paragraph]],
    ) -> None:
        """Derive all runtime views and lookup tables from ``buffers``
        (``doc_paragraphs`` is :func:`_split_documents` of ``collection``)."""
        self.buffers = buffers
        self._views = _TermViews(buffers, self.vocab)
        self._p_docs = memoryview(buffers.p_docs).toreadonly()
        self._p_tfs = memoryview(buffers.p_tfs).toreadonly()
        self._p_offsets = buffers.p_offsets
        self._pp_ords = memoryview(buffers.pp_ords).toreadonly()
        self._pp_offsets = buffers.pp_offsets
        if (
            len(buffers.pp_offsets) != len(buffers.p_offsets)
            or buffers.pp_offsets[-1] != len(buffers.pp_ords)
        ):
            raise ValueError("paragraph postings do not fit the posting slots")
        # Flat stem-id -> posting-slot table (-1 = no postings): the id
        # space is dense, so an array beats a dict by ~4x resident bytes.
        p_terms = buffers.p_terms
        slots = array("i", [-1]) * ((max(p_terms) + 1) if p_terms else 0)
        for slot, tid in enumerate(p_terms):
            slots[tid] = slot
        self._posting_slot: array = slots
        self._documents: dict[int, Document] = {}
        paragraphs: list[Paragraph] = []
        self._paragraph_terms: dict[tuple[int, int], ParagraphTerms] = {}
        t_offsets = buffers.t_offsets
        n_paras = len(t_offsets) - 1
        text_bytes = 0
        last_doc = -1
        for doc, doc_paras in zip(collection.documents, doc_paragraphs):
            # Ordinal order must be doc-id order: PR returns paragraph
            # postings as they stand, and its contract is ascending doc id.
            if doc.doc_id <= last_doc:
                raise ValueError("documents must be in ascending doc-id order")
            last_doc = doc.doc_id
            self._documents[doc.doc_id] = doc
            text_bytes += doc.size_bytes
            for para in doc_paras:
                ordinal = len(paragraphs)
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
                paragraphs.append(para)
        if len(paragraphs) != n_paras:
            raise ValueError(
                f"index buffers hold {n_paras} paragraphs, "
                f"corpus has {len(paragraphs)}"
            )
        #: Every paragraph of the collection, indexed by ordinal (the unit
        #: of the paragraph postings).
        self.paragraphs: tuple[Paragraph, ...] = tuple(paragraphs)
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
                self._views, self._p_docs, self._p_tfs, self._pp_ords,
                self._posting_slot, self._documents, self.paragraphs,
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
        return total

    # -- lookups ---------------------------------------------------------------
    def _slot(self, tid: int) -> int:
        """Posting slot of term id ``tid``; -1 when it has no postings here
        (a missing or later-interned id included)."""
        slots = self._posting_slot
        return slots[tid] if 0 <= tid < len(slots) else -1

    def document_frequency(self, stem_: str) -> int:
        """Number of documents containing ``stem_``."""
        slot = self._slot(self.vocab.lookup(stem_))
        if slot < 0:
            return 0
        off = self._p_offsets
        return off[slot + 1] - off[slot]

    def postings(self, stem_: str) -> dict[int, int]:
        """doc_id -> tf mapping for ``stem_`` (empty dict if absent).

        Built per call from the packed arrays; this is the reference /
        compatibility surface, not the hot path (which slices
        :meth:`sorted_postings` views directly).
        """
        slot = self._slot(self.vocab.lookup(stem_))
        if slot < 0:
            return {}
        lo, hi = self._p_offsets[slot], self._p_offsets[slot + 1]
        return dict(zip(self._p_docs[lo:hi], self._p_tfs[lo:hi]))

    def sorted_postings(self, stem_: str) -> memoryview:
        """Sorted doc-id array for ``stem_`` (empty view if absent).

        The returned view is read-only — sharing the internal buffer is
        safe by construction.
        """
        return self.id_postings(self.vocab.lookup(stem_))

    def paragraph_postings(self, stem_: str) -> memoryview:
        """Ascending ordinals (into :attr:`paragraphs`) of the paragraphs
        holding ``stem_`` (read-only; empty view if absent)."""
        return self.id_paragraph_postings(self.vocab.lookup(stem_))

    def id_postings(self, tid: int) -> memoryview:
        """:meth:`sorted_postings` of the stem whose :attr:`vocab` id is
        ``tid`` — the retrieval loop resolves a question's ids once."""
        slot = self._slot(tid)
        if slot < 0:
            return _EMPTY_U32
        return self._p_docs[self._p_offsets[slot] : self._p_offsets[slot + 1]]

    def id_paragraph_postings(self, tid: int) -> memoryview:
        """:meth:`paragraph_postings` of the stem whose id is ``tid``."""
        slot = self._slot(tid)
        if slot < 0:
            return _EMPTY_U32
        return self._pp_ords[self._pp_offsets[slot] : self._pp_offsets[slot + 1]]

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def doc_bytes(self, doc_id: int) -> int:
        return self._documents[doc_id].size_bytes

    def paragraph_terms(self, key: tuple[int, int]) -> ParagraphTerms | None:
        """Precomputed term view for paragraph ``key`` (``(doc_id, index)``)."""
        return self._paragraph_terms.get(key)

    @property
    def doc_ids(self) -> t.KeysView[int]:
        return self._documents.keys()

    def iter_terms(self) -> t.Iterator[tuple[str, int]]:
        """(stem, document frequency) pairs, in posting-slot order."""
        off = self._p_offsets
        term = self.vocab.term
        for slot, tid in enumerate(self.buffers.p_terms):
            yield term(tid), off[slot + 1] - off[slot]
