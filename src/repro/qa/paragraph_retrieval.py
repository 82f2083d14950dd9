"""PR — paragraph retrieval module.

Uses the Boolean IR engine to extract, per sub-collection, the paragraphs
containing the question keywords (Section 2.1).  PR is the disk-bound
bottleneck (80 % disk time, Table 3) and is *iterative at collection
granularity* (Table 2) — `retrieve` therefore accepts an explicit subset
of collection ids, which is exactly the interface the distributed system's
partitioners drive.

When constructed with a :class:`~repro.retrieval.selection.CollectionSelector`,
the fan-out is routed instead of broadcast: only the collections the
selector scored in are visited, so results may differ from exhaustive
search.  Explicit ``collection_ids`` always bypass the selector — a
partitioner that asks for collection 3 gets collection 3.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..nlp.keywords import Keyword
from ..retrieval.collection import IndexedCorpus
from ..retrieval.paragraphs import Paragraph
from ..retrieval.selection import CollectionSelector, SelectionDecision
from .question import ProcessedQuestion

__all__ = [
    "CollectionWork",
    "PRResult",
    "ParagraphRetriever",
    "resolve_collections",
]


@dataclass(frozen=True, slots=True)
class CollectionWork:
    """Work performed retrieving from one sub-collection."""

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


def resolve_collections(
    n_collections: int,
    collection_ids: t.Sequence[int] | None,
    selector: CollectionSelector | None = None,
    keywords: t.Sequence[Keyword] | None = None,
) -> tuple[list[int], SelectionDecision | None]:
    """The one place the PR fan-out is decided.

    Explicit ``collection_ids`` always win (partitioners drive exact
    subsets); otherwise the selector routes the question's keywords, and
    with no selector the legacy default — every collection — applies.
    Returns the collection ids to visit plus the selector's decision
    (``None`` when no selection happened).
    """
    if collection_ids is not None:
        return list(collection_ids), None
    if selector is None or keywords is None:
        return list(range(n_collections)), None
    decision = selector.select(keywords)
    return list(decision.selected), decision


class ParagraphRetriever:
    """The PR module."""

    def __init__(
        self,
        indexed: IndexedCorpus,
        selector: CollectionSelector | None = None,
    ) -> None:
        self.indexed = indexed
        self.selector = selector
        #: The selector's decision for the most recent :meth:`retrieve`
        #: call (``None`` when no selection happened) — pipelines read
        #: this to record ``retrieval.selector.*`` metrics.
        self.last_decision: SelectionDecision | None = None

    @property
    def n_collections(self) -> int:
        return self.indexed.n_collections

    def retrieve(
        self,
        processed: ProcessedQuestion,
        collection_ids: t.Sequence[int] | None = None,
        round_trace: list[list[tuple[str, ...]]] | None = None,
    ) -> PRResult:
        """Retrieve paragraphs from the given sub-collections (default all).

        Collections are processed one at a time — the iterative structure
        the RECV partitioner exploits by letting under-loaded processors
        pull one collection at a time (Fig 7a).

        ``round_trace``, when given, holds one list per collection (by
        collection id); each visited collection appends the conjunction
        key of every relaxation round it ran to its list — the batch
        executor's conjunction-cache replay script.  Unvisited
        collections' lists stay empty.
        """
        keywords = list(processed.keywords)
        ids, decision = resolve_collections(
            self.indexed.n_collections, collection_ids, self.selector, keywords
        )
        self.last_decision = decision
        retrievers = self.indexed.retrievers
        result = PRResult(paragraphs=[])
        for cid in ids:
            r = retrievers[cid].retrieve(
                keywords, None if round_trace is None else round_trace[cid]
            )
            result.paragraphs.extend(r.paragraphs)
            result.per_collection.append(
                CollectionWork(
                    collection_id=cid,
                    n_paragraphs=len(r.paragraphs),
                    postings_scanned=r.postings_scanned,
                    doc_bytes_read=r.doc_bytes_read,
                    relaxation_rounds=r.relaxation_rounds,
                )
            )
        return result
