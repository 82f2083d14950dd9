"""Corpus-wide index management.

Builds and holds the per-sub-collection indexes ("each node has a copy of
the TREC-9 collection ... divided into 8 sub-collections, separately
indexed", Section 6) and offers corpus-level retrieval that iterates over
sub-collections — the iterative structure (granularity: Collection, Table
2) that both intra-question partitioning strategies exploit.

Indexing stems through the process-wide shared cache
(:data:`repro.nlp.stemming.SHARED_STEM_CACHE`), so building several
corpora — common in experiments and tests — reuses stems across
collections *and* across corpora instead of re-deriving them per
``IndexedCorpus``.
"""

from __future__ import annotations

import typing as t

from ..corpus.generator import Corpus
from ..nlp.keywords import Keyword
from .boolean import BooleanRetriever, RetrievalResult, relax
from .inverted_index import CollectionIndex, ParagraphTerms, build_indexes
from .paragraphs import Paragraph

__all__ = ["IndexedCorpus"]


class IndexedCorpus:
    """All sub-collection indexes of a corpus, with uniform retrieval.

    Parameters
    ----------
    corpus:
        The corpus to index.
    indexes:
        Pre-built sub-collection indexes to adopt instead of indexing
        ``corpus`` again — used by :meth:`reconfigured` so retriever
        stacks with their own memos can share one (expensive) index build.
    """

    def __init__(
        self,
        corpus: Corpus,
        indexes: list[CollectionIndex] | None = None,
    ) -> None:
        self.corpus = corpus
        self.indexes: list[CollectionIndex] = (
            indexes if indexes is not None else build_indexes(corpus.collections)
        )
        self.retrievers: list[BooleanRetriever] = [
            BooleanRetriever(ix) for ix in self.indexes
        ]

    def reconfigured(self) -> IndexedCorpus:
        """A retriever stack with its own (empty) stem memos, same indexes.

        Shares the already-built :class:`CollectionIndex` objects, so this
        is cheap — only the retrievers are new.
        """
        return IndexedCorpus(self.corpus, indexes=self.indexes)

    @property
    def n_collections(self) -> int:
        return len(self.indexes)

    def retrieve_collection(
        self, collection_id: int, keywords: t.Sequence[Keyword]
    ) -> RetrievalResult:
        """Retrieve from one sub-collection (the PR sub-task unit)."""
        outcome = next(relax(self.retrievers, keywords, (collection_id,)))
        return RetrievalResult(*outcome)

    def retrieve_all(
        self, keywords: t.Sequence[Keyword]
    ) -> list[RetrievalResult]:
        """Retrieve from every sub-collection, in collection order."""
        return [
            RetrievalResult(*outcome)
            for outcome in relax(self.retrievers, keywords, range(self.n_collections))
        ]

    def term_lookup(self, paragraph: Paragraph) -> ParagraphTerms:
        """Term view of ``paragraph`` for PS and AP: the index's own when
        the index holds this paragraph (its key, with this text), else
        one built from the text."""
        cid = paragraph.collection_id
        if 0 <= cid < len(self.indexes):
            terms = self.indexes[cid].paragraph_terms(paragraph.key)
            # The same str object on every indexed path: no characters
            # are compared.
            if terms is not None and terms.text == paragraph.text:
                return terms
        return ParagraphTerms.from_text(paragraph.text)

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
