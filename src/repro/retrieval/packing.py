"""Serialization of the packed index data plane.

Because a :class:`~repro.retrieval.inverted_index.CollectionIndex` is a
handful of flat ``array`` buffers plus lookup tables derived from the
corpus, its complete state (minus the corpus itself) serializes as raw
bytes — roughly an order of magnitude cheaper than re-tokenizing and
re-stemming the corpus.  This module defines that artifact:

* :func:`indexes_to_payload` — snapshot a list of collection indexes
  (shared-reference, no buffer copies) together with the vocabulary term
  table their ids refer to;
* :func:`attach_payload` — reconstruct the indexes against a corpus in a
  (possibly different) process.  When the live vocabulary already starts
  with the payload's term table — the common case for workers attaching
  before interning anything else — ids are valid as-is and attach is a
  zero-rebuild reslice.  Otherwise every id array is remapped through a
  freshly interned translation table and the per-paragraph sorted runs
  are re-derived (ids order differently under new numbering).

Vocabulary ids are process-local, which is exactly why the payload
carries the term table: correctness never depends on two processes
agreeing on ids, only on each process's arrays matching its own
vocabulary.
"""

from __future__ import annotations

import typing as t
from array import array

from ..corpus.generator import Corpus
from ..nlp.vocabulary import SHARED_VOCABULARY, Vocabulary
from .inverted_index import CollectionIndex, IndexBuffers
from .selection import CollectionSketch, sketch_of

__all__ = [
    "PAYLOAD_SCHEMA",
    "indexes_to_payload",
    "attach_payload",
]

#: Bump when the buffer layout changes; mismatched payloads are rejected.
PAYLOAD_SCHEMA = "packed-index/v2"

_BUFFER_FIELDS = (
    "t_offsets", "starts", "lengths", "stem_ids", "order", "sorted_ids",
    "pset_offsets", "pset_ids", "p_terms", "p_offsets", "p_docs", "p_tfs",
)


# -- serialization ---------------------------------------------------------------
def indexes_to_payload(
    indexes: t.Sequence[CollectionIndex],
    vocabulary: Vocabulary | None = None,
) -> dict[str, t.Any]:
    """Snapshot ``indexes`` into a picklable payload (no buffer copies)."""
    vocab = vocabulary or SHARED_VOCABULARY
    return {
        "schema": PAYLOAD_SCHEMA,
        "vocab_table": vocab.table(),
        "collections": [
            {
                "collection_id": ix.collection_id,
                "buffers": {
                    name: getattr(ix.buffers, name) for name in _BUFFER_FIELDS
                },
                "sketch": _sketch_entry(sketch_of(ix)),
            }
            for ix in indexes
        ],
    }


def _sketch_entry(sketch: CollectionSketch) -> dict[str, t.Any]:
    """Picklable form of one collection's term-statistic sketch."""
    return {
        "stem_ids": sketch.stem_ids,
        "dfs": sketch.dfs,
        "pfs": sketch.pfs,
        "n_documents": sketch.n_documents,
        "n_paragraphs": sketch.n_paragraphs,
    }


def _sketch_from_entry(
    collection_id: int,
    raw: dict[str, t.Any],
    mapping: t.Sequence[int] | None,
) -> CollectionSketch:
    sketch = CollectionSketch(
        collection_id=collection_id,
        stem_ids=raw["stem_ids"],
        dfs=raw["dfs"],
        pfs=raw["pfs"],
        n_documents=raw["n_documents"],
        n_paragraphs=raw["n_paragraphs"],
    )
    return sketch.remapped(mapping) if mapping is not None else sketch


def _copy_buffers(raw: dict[str, array]) -> IndexBuffers:
    missing = [name for name in _BUFFER_FIELDS if name not in raw]
    if missing:
        raise ValueError(f"index payload missing buffers: {missing}")
    return IndexBuffers(**{name: raw[name] for name in _BUFFER_FIELDS})


def _remap_buffers(buffers: IndexBuffers, mapping: t.Sequence[int]) -> None:
    """Rewrite every id array through ``mapping`` (old id -> new id).

    New ids order differently than old ones, so the derived sorted
    structures — per-paragraph ``order``/``sorted_ids`` runs and the
    per-paragraph ``pset_ids`` runs — are re-sorted in place.  Posting
    slots need no re-sort (they are keyed, not ordered, and doc ids are
    untouched).
    """
    get = mapping.__getitem__
    buffers.stem_ids = array("i", map(get, buffers.stem_ids))
    buffers.p_terms = array("i", map(get, buffers.p_terms))
    stem_ids = buffers.stem_ids
    t_offsets = buffers.t_offsets
    order = array("H")
    sorted_ids = array("i")
    for p in range(len(t_offsets) - 1):
        lo, hi = t_offsets[p], t_offsets[p + 1]
        ids = stem_ids[lo:hi]
        loc = sorted(range(len(ids)), key=ids.__getitem__)
        order.extend(loc)
        sorted_ids.extend(ids[j] for j in loc)
    buffers.order = order
    buffers.sorted_ids = sorted_ids
    pset_offsets = buffers.pset_offsets
    old_pset = buffers.pset_ids
    pset_ids = array("i")
    for p in range(len(pset_offsets) - 1):
        pset_ids.extend(sorted(map(get, old_pset[pset_offsets[p]:pset_offsets[p + 1]])))
    buffers.pset_ids = pset_ids


def attach_payload(
    corpus: Corpus,
    payload: dict[str, t.Any],
    vocabulary: Vocabulary | None = None,
) -> list[CollectionIndex]:
    """Reconstruct collection indexes from ``payload`` against ``corpus``.

    Raises :class:`ValueError` when the payload's schema or shape does
    not match — callers treat that as a cache miss and rebuild.
    """
    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise ValueError(
            f"unexpected index payload schema {payload.get('schema')!r}"
        )
    vocab = vocabulary or SHARED_VOCABULARY
    table = payload["vocab_table"]
    if vocab.matches_prefix(table):
        mapping = None
    else:
        mapping = array("i", (vocab.intern(term) for term in table))
        if all(mapping[i] == i for i in range(len(mapping))):
            mapping = None  # fresh vocab interned the table verbatim
    by_id = {entry["collection_id"]: entry for entry in payload["collections"]}
    if sorted(by_id) != sorted(c.collection_id for c in corpus.collections):
        raise ValueError("index payload does not cover the corpus collections")
    indexes: list[CollectionIndex] = []
    for collection in corpus.collections:
        entry = by_id[collection.collection_id]
        buffers = _copy_buffers(entry["buffers"])
        if mapping is not None:
            _remap_buffers(buffers, mapping)
        index = CollectionIndex.from_buffers(collection, buffers, vocabulary=vocab)
        # Older artifacts carry no sketch; leave it to lazy derivation.
        if "sketch" in entry:
            index._sketch = _sketch_from_entry(
                collection.collection_id, entry["sketch"], mapping
            )
        indexes.append(index)
    return indexes
