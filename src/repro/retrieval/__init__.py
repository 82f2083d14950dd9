"""Boolean information-retrieval substrate (the Zprise stand-in)."""

from .boolean import BooleanRetriever, RetrievalResult, SharedPostings
from .collection import IndexedCorpus
from .inverted_index import (
    CollectionIndex,
    IndexBuffers,
    IndexStats,
    ParagraphTerms,
    StemCache,
    StemSetView,
)
from .packing import attach_payload, indexes_to_payload
from .paragraphs import Paragraph, split_paragraphs
from .selection import (
    CollectionSelector,
    CollectionSketch,
    SelectionDecision,
    build_sketch,
    sketch_of,
)

__all__ = [
    "BooleanRetriever",
    "CollectionIndex",
    "CollectionSelector",
    "CollectionSketch",
    "IndexBuffers",
    "IndexStats",
    "IndexedCorpus",
    "Paragraph",
    "ParagraphTerms",
    "RetrievalResult",
    "SelectionDecision",
    "SharedPostings",
    "StemCache",
    "StemSetView",
    "attach_payload",
    "build_sketch",
    "indexes_to_payload",
    "sketch_of",
    "split_paragraphs",
]
