"""Paragraph segmentation.

Falcon's paragraph retrieval has "an additional post-processing phase to
extract paragraphs from documents" (Section 2.1).  Documents in the
synthetic corpus separate paragraphs with blank lines, like TREC SGML text
bodies effectively did.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Paragraph", "split_paragraphs"]


@dataclass(frozen=True, slots=True)
class Paragraph:
    """One paragraph of one document."""

    doc_id: int
    collection_id: int
    index: int  # position within the document
    text: str

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    @property
    def key(self) -> tuple[int, int]:
        """Globally unique (doc_id, index) identifier."""
        return (self.doc_id, self.index)


def split_paragraphs(
    doc_id: int, collection_id: int, text: str
) -> list[Paragraph]:
    """Split document ``text`` into paragraphs on blank lines."""
    out: list[Paragraph] = []
    for i, chunk in enumerate(text.split("\n\n")):
        chunk = chunk.strip()
        if chunk:
            out.append(Paragraph(doc_id, collection_id, i, chunk))
    return out
