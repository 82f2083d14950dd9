"""Boolean information-retrieval substrate (the Zprise stand-in)."""

from .boolean import BooleanRetriever, RetrievalResult
from .collection import IndexedCorpus
from .inverted_index import (
    CollectionIndex,
    IndexBuffers,
    IndexStats,
    ParagraphTerms,
    StemCache,
    build_indexes,
)
from .packing import attach_payload, indexes_to_payload
from .paragraphs import Paragraph, split_paragraphs

__all__ = [
    "BooleanRetriever",
    "CollectionIndex",
    "IndexBuffers",
    "IndexStats",
    "IndexedCorpus",
    "Paragraph",
    "ParagraphTerms",
    "RetrievalResult",
    "StemCache",
    "attach_payload",
    "build_indexes",
    "indexes_to_payload",
    "split_paragraphs",
]
