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
  freshly interned translation table and the per-paragraph id-sorted
  token runs are re-derived (ids order differently under new numbering).

Vocabulary ids are process-local, which is exactly why the payload
carries the term table: correctness never depends on two processes
agreeing on ids, only on each process's arrays matching its own
vocabulary.
"""

from __future__ import annotations

import typing as t
from array import array

import numpy as np

from ..corpus.generator import Corpus
from ..nlp.vocabulary import SHARED_VOCABULARY, Vocabulary
from .inverted_index import CollectionIndex, IndexBuffers, _id_order, _typed

__all__ = [
    "PAYLOAD_SCHEMA",
    "indexes_to_payload",
    "attach_payload",
]

#: Bump when the buffer layout changes; mismatched payloads are rejected.
#: v3 replaced the per-paragraph stem-id runs with paragraph postings.
PAYLOAD_SCHEMA = "packed-index/v3"

_BUFFER_FIELDS = (
    "t_offsets", "starts", "lengths", "stem_ids", "order", "sorted_ids",
    "p_terms", "p_offsets", "p_docs", "p_tfs", "pp_offsets", "pp_ords",
)


# -- serialization ---------------------------------------------------------------
def indexes_to_payload(
    indexes: t.Sequence[CollectionIndex],
    vocabulary: Vocabulary | None = None,
) -> dict[str, t.Any]:
    """Snapshot ``indexes`` into a picklable payload (no buffer copies)."""
    vocab = SHARED_VOCABULARY if vocabulary is None else vocabulary
    return {
        "schema": PAYLOAD_SCHEMA,
        "vocab_table": vocab.table(),
        "collections": [
            {
                "collection_id": ix.collection_id,
                "buffers": {
                    name: getattr(ix.buffers, name) for name in _BUFFER_FIELDS
                },
            }
            for ix in indexes
        ],
    }


def _copy_buffers(raw: dict[str, array]) -> IndexBuffers:
    missing = [name for name in _BUFFER_FIELDS if name not in raw]
    if missing:
        raise ValueError(f"index payload missing buffers: {missing}")
    return IndexBuffers(**{name: raw[name] for name in _BUFFER_FIELDS})


def _remap_buffers(buffers: IndexBuffers, mapping: t.Sequence[int]) -> None:
    """Rewrite every id array through ``mapping`` (old id -> new id).

    New ids order differently than old ones, so the per-paragraph
    ``order``/``sorted_ids`` runs are re-sorted, by the build's one
    stable sort.  Posting slots need no re-sort: they are keyed, not
    ordered, and the doc ids and paragraph ordinals they hold do not
    depend on term ids.
    """
    table = np.asarray(mapping, np.intc)
    ids = table[np.frombuffer(buffers.stem_ids, np.intc)]
    buffers.stem_ids = _typed("i", ids)
    buffers.p_terms = _typed("i", table[np.frombuffer(buffers.p_terms, np.intc)])
    buffers.order, buffers.sorted_ids = _id_order(
        ids, np.frombuffer(buffers.t_offsets, np.uintc)
    )


def attach_payload(
    corpus: Corpus,
    payload: dict[str, t.Any],
    vocabulary: Vocabulary | None = None,
) -> list[CollectionIndex]:
    """Reconstruct collection indexes from ``payload`` against ``corpus``.

    Only ``collection_id`` and ``buffers`` are read from each collection
    entry; other keys are ignored.  Raises :class:`ValueError` when the
    payload's schema or shape does not match — callers treat that as a
    cache miss and rebuild.
    """
    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise ValueError(
            f"unexpected index payload schema {payload.get('schema')!r}"
        )
    vocab = SHARED_VOCABULARY if vocabulary is None else vocabulary
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
        indexes.append(
            CollectionIndex.from_buffers(collection, buffers, vocabulary=vocab)
        )
    return indexes
