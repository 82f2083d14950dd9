"""Boolean retrieval with Falcon-style keyword relaxation.

"Falcon currently uses a Boolean IR system, hence documents and paragraphs
are not ranked after the PR phase" (Section 2.1).  The query is the AND of
the selected keywords; when the conjunction matches too few documents the
engine *relaxes* — drops the lowest-priority keyword — and retries, the
LASSO/Falcon retrieval loop.

A question's keywords match a handful of documents per sub-collection
(about four), so the loop's cost is the interpreter's, not the data's.
It therefore works on **bitsets held in Python ints**: each retriever
keeps a memo, filled on first use and keyed by vocabulary id, of a
stem's document bitset (bit = doc id minus the collection's first doc
id), its posting count and its paragraph bitset (bit = paragraph
ordinal), built from the index's packed posting arrays.  A relaxation
round is one AND over its stems and one popcount against ``min_docs``;
the matched documents are the set bits in ascending order.  The
paragraph keyword-quorum filter — Falcon's "post-processing phase to
extract paragraphs from documents" — is bitset arithmetic too: a
keyword's paragraphs are the AND of its stems' paragraph bitsets, and
the quorum keeps the ordinals that at least ``needed`` keywords set, in
a matched document.

:func:`relax` is the one loop: it resolves a question's stem ids once
and runs every requested sub-collection in turn, for PR
(:class:`repro.qa.ParagraphRetriever`), :class:`IndexedCorpus
<repro.retrieval.IndexedCorpus>` and :meth:`BooleanRetriever.retrieve`
alike.  Nothing here lives for a batch: a batch of questions runs this
loop once per distinct question (:meth:`repro.qa.QAPipeline.answer_batch`).

The engine reports, along with its results, the work it performed
(postings scanned, document bytes read) so the simulation's cost model can
charge realistic disk time for each sub-collection.  **A memoized stem
charges the same logical work as a cold one** — every active stem's full
posting list, stopping at the first empty one — because the cost model
measures the work the paper's system would do, not our memoization
shortcuts; Table 3 resource weights and the PR cost model are unchanged.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..nlp.keywords import Keyword
from .inverted_index import CollectionIndex
from .paragraphs import Paragraph

__all__ = ["BooleanRetriever", "RetrievalResult", "relax"]


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


#: One sub-collection's outcome as :func:`relax` yields it: the fields of
#: :class:`RetrievalResult`, in order.
Outcome = tuple[int, list[Paragraph], list[Keyword], list[int], int, int, int]


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
    """

    def __init__(
        self,
        index: CollectionIndex,
        min_docs: int = 3,
        paragraph_quorum: float = 0.5,
    ) -> None:
        if not 0.0 < paragraph_quorum <= 1.0:
            raise ValueError("paragraph_quorum must be in (0, 1]")
        if min_docs < 1:
            raise ValueError("min_docs must be >= 1")
        self.index = index
        self.min_docs = min_docs
        self.paragraph_quorum = paragraph_quorum
        self._base = next(iter(index.doc_ids), 0)
        #: Document sizes by bit position.
        self._doc_bytes = {d - self._base: index.doc_bytes(d) for d in index.doc_ids}
        #: A keyword with no stems is in every paragraph (an empty AND).
        self._every_paragraph = (1 << len(index.paragraphs)) - 1
        #: term id -> (doc bitset, postings, paragraph bitset).  Questions
        #: only look ids up (an unknown stem is -1), so this holds at most
        #: one entry per vocabulary id, plus -1.
        self._memo: dict[int, tuple[int, int, int]] = {}
        self._lookups = 0
        self._misses = 0

    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the stem bitset memo: a relaxation
        round's stem lookup hits when an earlier lookup built its entry."""
        return {
            "hits": self._lookups - self._misses,
            "misses": self._misses,
            "size": len(self._memo),
        }

    def retrieve(self, keywords: t.Sequence[Keyword]) -> RetrievalResult:
        """Run the retrieval loop for ``keywords`` against this collection."""
        return RetrievalResult(*next(relax((self,), keywords, (0,))))

    def _fill(self, tid: int) -> tuple[int, int, int]:
        """Build, memoize and count the entry of term id ``tid``."""
        docs = self.index.id_postings(tid)
        base = self._base
        doc_bits = para_bits = 0
        for d in docs:
            doc_bits |= 1 << (d - base)
        for o in self.index.id_paragraph_postings(tid):
            para_bits |= 1 << o
        entry = self._memo[tid] = (doc_bits, len(docs), para_bits)
        self._misses += 1
        return entry


def relax(
    retrievers: t.Sequence[BooleanRetriever],
    keywords: t.Sequence[Keyword],
    collection_ids: t.Iterable[int],
) -> t.Iterator[Outcome]:
    """The retrieval loop of ``keywords`` on ``retrievers[cid]`` for each
    ``cid`` of ``collection_ids``, in order.

    The keywords are ranked and their stem ids resolved once (again only
    when a collection's vocabulary differs from the last one's).  Each
    collection drops the lowest-priority keyword until the AND of the
    active stems' doc bitsets matches ``min_docs`` documents or one
    keyword is left, then keeps the paragraphs of the matched documents
    that hold a quorum of the active keywords.  ``postings_scanned``
    charges each active stem's posting count in keyword order, duplicates
    kept, up to the first stem with none.
    """
    active = sorted(keywords, key=lambda k: k.priority)
    ends = [0]
    for kw in active:
        ends.append(ends[-1] + len(kw.stems))
    vocab: t.Any = None
    ids: list[int] = []
    for cid in collection_ids:
        r = retrievers[cid]
        index = r.index
        m = len(active)
        if not m:
            yield index.collection_id, [], [], [], 0, 0, 0
            continue
        if index.vocab is not vocab:
            vocab = index.vocab
            ids = [vocab.lookup(s) for kw in active for s in kw.stems]
        memo = r._memo
        fill = r._fill
        scanned = rounds = lookups = 0
        while True:
            rounds += 1
            bits = -1 if ends[m] else 0
            for tid in ids[: ends[m]]:
                lookups += 1
                docs, n, _ = memo.get(tid) or fill(tid)
                scanned += n
                if not n:
                    bits = 0
                    break
                bits &= docs
            if m == 1 or bits.bit_count() >= r.min_docs:
                break
            m -= 1
        r._lookups += lookups

        # The set bits, read top-down and reversed: ascending doc ids.
        base = r._base
        sizes = r._doc_bytes
        matched: list[int] = []
        doc_bytes = 0
        rest = bits
        while rest:
            h = rest.bit_length() - 1
            rest ^= 1 << h
            matched.append(base + h)
            doc_bytes += sizes[h]
        matched.reverse()
        found: list[Paragraph] = []
        if matched:
            # Paragraph ordinals ascend in (doc id, paragraph index)
            # order, which is the output order.
            paragraphs = index.paragraphs
            if m == 1:
                # A paragraph holding every stem of the one keyword lies
                # in a document holding them: a matched one.
                ords = r._every_paragraph
                for tid in ids[: ends[1]]:
                    ords &= memo[tid][2]
                while ords:
                    h = ords.bit_length() - 1
                    ords ^= 1 << h
                    found.append(paragraphs[h])
            else:
                needed = max(1, int(round(r.paragraph_quorum * m)))
                at_least = [-1] + [0] * needed
                for k in range(m):
                    kb = r._every_paragraph
                    for tid in ids[ends[k] : ends[k + 1]]:
                        kb &= memo[tid][2]
                    for c in range(needed, 0, -1):
                        at_least[c] |= at_least[c - 1] & kb
                ords = at_least[needed]
                while ords:
                    h = ords.bit_length() - 1
                    ords ^= 1 << h
                    para = paragraphs[h]
                    if bits >> (para.doc_id - base) & 1:
                        found.append(para)
            found.reverse()
        yield (
            index.collection_id,
            found,
            active[:m],
            matched,
            scanned,
            doc_bytes,
            rounds,
        )
