"""PR — paragraph retrieval module.

Uses the Boolean IR engine to extract, per sub-collection, the paragraphs
containing the question keywords (Section 2.1).  PR is the disk-bound
bottleneck (80 % disk time, Table 3) and is *iterative at collection
granularity* (Table 2) — `retrieve` therefore accepts an explicit subset
of collection ids, which is exactly the interface the distributed system's
partitioners drive.  With no ids given, every collection is visited, as
in the paper.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..retrieval.boolean import relax
from ..retrieval.collection import IndexedCorpus
from ..retrieval.paragraphs import Paragraph
from .question import ProcessedQuestion

__all__ = [
    "CollectionWork",
    "PRResult",
    "ParagraphRetriever",
]


class CollectionWork(t.NamedTuple):
    """Work performed retrieving from one sub-collection (a tuple: PR
    builds one per collection per question)."""

    collection_id: int
    n_paragraphs: int
    postings_scanned: int
    doc_bytes_read: int
    relaxation_rounds: int


@dataclass(slots=True)
class PRResult:
    """Paragraphs plus per-collection work accounting."""

    paragraphs: list[Paragraph]
    per_collection: list[CollectionWork] = field(default_factory=list)

    @property
    def postings_scanned(self) -> int:
        return sum(w.postings_scanned for w in self.per_collection)

    @property
    def doc_bytes_read(self) -> int:
        return sum(w.doc_bytes_read for w in self.per_collection)


class ParagraphRetriever:
    """The PR module."""

    def __init__(self, indexed: IndexedCorpus) -> None:
        self.indexed = indexed

    @property
    def n_collections(self) -> int:
        return self.indexed.n_collections

    def retrieve(
        self,
        processed: ProcessedQuestion,
        collection_ids: t.Sequence[int] | None = None,
    ) -> PRResult:
        """Retrieve paragraphs from the given sub-collections (default all).

        Collections are processed one at a time — the iterative structure
        the RECV partitioner exploits by letting under-loaded processors
        pull one collection at a time (Fig 7a) — by one
        :func:`~repro.retrieval.boolean.relax` loop over the question's
        keywords.
        """
        if collection_ids is None:
            collection_ids = range(self.indexed.n_collections)
        paragraphs: list[Paragraph] = []
        per_collection: list[CollectionWork] = []
        for cid, found, _, _, scanned, doc_bytes, rounds in relax(
            self.indexed.retrievers, processed.keywords, collection_ids
        ):
            paragraphs += found
            per_collection.append(
                CollectionWork(cid, len(found), scanned, doc_bytes, rounds)
            )
        return PRResult(paragraphs, per_collection)
