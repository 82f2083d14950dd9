"""Corpus-wide index management.

Builds and holds the per-sub-collection indexes ("each node has a copy of
the TREC-9 collection ... divided into 8 sub-collections, separately
indexed", Section 6) and offers corpus-level retrieval that iterates over
sub-collections — the iterative structure (granularity: Collection, Table
2) that both intra-question partitioning strategies exploit.

Indexing stems through the process-wide shared cache by default
(:data:`repro.nlp.stemming.SHARED_STEM_CACHE`), so building several
corpora — common in experiments and tests — reuses stems across
collections *and* across corpora instead of re-deriving them per
``IndexedCorpus``.
"""

from __future__ import annotations

import typing as t

from ..corpus.generator import Corpus
from ..nlp.keywords import Keyword
from ..nlp.stemming import SHARED_STEM_CACHE, StemCache
from .boolean import BooleanRetriever, RetrievalResult
from .inverted_index import CollectionIndex, ParagraphTerms
from .paragraphs import Paragraph
from .selection import CollectionSelector, CollectionSketch, sketch_of

__all__ = ["IndexedCorpus"]


class IndexedCorpus:
    """All sub-collection indexes of a corpus, with uniform retrieval.

    Parameters
    ----------
    corpus:
        The corpus to index.
    min_docs / paragraph_quorum:
        Relaxation floor and paragraph-extraction quorum, passed to every
        :class:`BooleanRetriever`.
    stemmer:
        Stem cache shared by all sub-collection indexes (defaults to the
        process-wide shared cache).
    conjunction_cache / galloping:
        Retriever hot-path knobs (see :class:`BooleanRetriever`).
        ``conjunction_cache=0, galloping=False`` is the reference
        implementation for ``tests/retrieval/test_term_index.py``.
    indexes:
        Pre-built sub-collection indexes to adopt instead of indexing
        ``corpus`` again — used by :meth:`reconfigured` so baseline and
        optimized retriever stacks can share one (expensive) index build.
    """

    def __init__(
        self,
        corpus: Corpus,
        min_docs: int = 3,
        paragraph_quorum: float = 0.5,
        stemmer: StemCache | None = None,
        conjunction_cache: int = 256,
        galloping: bool = True,
        indexes: list[CollectionIndex] | None = None,
    ) -> None:
        self.corpus = corpus
        self.min_docs = min_docs
        self.paragraph_quorum = paragraph_quorum
        stemmer = stemmer or SHARED_STEM_CACHE
        self.indexes: list[CollectionIndex] = (
            indexes
            if indexes is not None
            else [
                CollectionIndex(coll, stemmer=stemmer)
                for coll in corpus.collections
            ]
        )
        self.retrievers: list[BooleanRetriever] = [
            BooleanRetriever(
                ix,
                min_docs=min_docs,
                paragraph_quorum=paragraph_quorum,
                conjunction_cache=conjunction_cache,
                galloping=galloping,
            )
            for ix in self.indexes
        ]

    def reconfigured(
        self, conjunction_cache: int = 256, galloping: bool = True
    ) -> IndexedCorpus:
        """A retriever stack with different hot-path knobs, same indexes.

        Shares the already-built :class:`CollectionIndex` objects, so this
        is cheap — only the retrievers (and their caches) are new.
        """
        return IndexedCorpus(
            self.corpus,
            min_docs=self.min_docs,
            paragraph_quorum=self.paragraph_quorum,
            conjunction_cache=conjunction_cache,
            galloping=galloping,
            indexes=self.indexes,
        )

    @property
    def n_collections(self) -> int:
        return len(self.indexes)

    def retrieve_collection(
        self, collection_id: int, keywords: t.Sequence[Keyword]
    ) -> RetrievalResult:
        """Retrieve from one sub-collection (the PR sub-task unit)."""
        return self.retrievers[collection_id].retrieve(keywords)

    def retrieve_all(
        self, keywords: t.Sequence[Keyword]
    ) -> list[RetrievalResult]:
        """Retrieve from every sub-collection, in collection order."""
        return [
            self.retrieve_collection(cid, keywords)
            for cid in range(self.n_collections)
        ]

    def sketches(self) -> list[CollectionSketch]:
        """Per-sub-collection term-statistic sketches (cached on the
        indexes, shared with the disk-cache artifact)."""
        return [sketch_of(ix) for ix in self.indexes]

    def selector(
        self,
        top_k: int | None = None,
        threshold: float = 0.0,
    ) -> CollectionSelector:
        """A :class:`CollectionSelector` over this corpus's sketches."""
        if not self.indexes:
            raise ValueError("cannot build a selector over zero collections")
        return CollectionSelector(
            self.sketches(),
            self.indexes[0].vocab,
            top_k=top_k,
            threshold=threshold,
        )

    def term_lookup(self, paragraph: Paragraph) -> ParagraphTerms | None:
        """Precomputed term view of ``paragraph`` (the PS/AP fast path)."""
        return self.indexes[paragraph.collection_id].paragraph_terms(
            paragraph.key
        )

    def document_frequency(self, stem: str) -> int:
        """Corpus-wide document frequency of a stem."""
        return sum(ix.document_frequency(stem) for ix in self.indexes)

    def total_stats(self) -> dict[str, int]:
        """Aggregate index statistics across sub-collections."""
        return {
            "n_documents": sum(ix.stats.n_documents for ix in self.indexes),
            "n_paragraphs": sum(ix.stats.n_paragraphs for ix in self.indexes),
            "n_postings": sum(ix.stats.n_postings for ix in self.indexes),
            "text_bytes": sum(ix.stats.text_bytes for ix in self.indexes),
            "index_bytes": sum(ix.stats.index_bytes for ix in self.indexes),
            "memory_bytes": sum(ix.stats.memory_bytes for ix in self.indexes),
        }
