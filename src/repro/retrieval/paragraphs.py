"""Paragraph segmentation.

Falcon's paragraph retrieval has "an additional post-processing phase to
extract paragraphs from documents" (Section 2.1).  Documents in the
synthetic corpus separate paragraphs with blank lines, like TREC SGML text
bodies effectively did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Paragraph", "split_paragraphs"]


@dataclass(frozen=True, slots=True)
class Paragraph:
    """One paragraph of one document."""

    doc_id: int
    collection_id: int
    index: int  # position within the document
    text: str
    #: UTF-8 size of ``text``, counted once: a paragraph never changes,
    #: and PS, AP and the cost model all read it per question.
    size_bytes: int = field(init=False, repr=False, compare=False)
    #: Globally unique ``(doc_id, index)`` identifier, built once: PS's
    #: term lookup, PO's sort, AP's entity layer and answer order and the
    #: result's paragraph ranks all read it per question.
    key: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size_bytes", len(self.text.encode("utf-8")))
        object.__setattr__(self, "key", (self.doc_id, self.index))


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
