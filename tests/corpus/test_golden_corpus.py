"""Golden corpus: the generated collection and its packed index, frozen as digests.

The cold path of every server, worker and experiment context is two
layers: :func:`~repro.corpus.generate_corpus` writes the collection and
:class:`~repro.retrieval.CollectionIndex` turns it into packed buffers.
A host-only change to either — a block draw, a bulk tokenizer, a memo —
must leave every output byte where it was.  The golden pipeline digest
(``tests/qa/test_golden_pipeline.py``) cannot see what the pipeline never
reads, such as titles, term frequencies or a stopword's stem id, so both
layers are hashed here directly:

* ``corpus``: every document's id, collection, title, text and planted
  fact keys, the vocabulary, and the generated question set;
* ``index``: the payload schema, the collection ids, the term table of
  a fresh vocabulary the collections are built into in order, and each
  :class:`~repro.retrieval.inverted_index.IndexBuffers` field's typecode
  and bytes, in field order.  Content, not pickle framing: two equal
  strings held as distinct objects cannot move the digest.

Two shapes: the golden pipeline's ``CorpusConfig(docs_per_collection=240)``
and the bench smoke tier.  The digests were recorded on commit
``e5e1725``.  Nothing here may depend on the interpreter's string-hash
seed; CI runs this file again under two fixed ``PYTHONHASHSEED`` values.

To re-record after a change that is *meant* to move the corpus::

    PYTHONPATH=src python tests/corpus/test_golden_corpus.py
"""

import hashlib

import pytest

from repro.corpus import CorpusConfig, generate_corpus, generate_questions
from repro.nlp.vocabulary import Vocabulary
from repro.retrieval import CollectionIndex
from repro.retrieval.packing import _BUFFER_FIELDS, indexes_to_payload

#: About 5 s on a 2-vCPU host, most of it the 240-document shape.
pytestmark = pytest.mark.slow

CONFIGS = {
    "pipeline240": CorpusConfig(docs_per_collection=240),
    "bench_smoke": CorpusConfig(
        n_collections=2, docs_per_collection=30, vocab_size=800, seed=17
    ),
}

#: Recorded on commit e5e1725.
GOLDEN = {
    "pipeline240": {
        "corpus": "c1ac9cb1dd26f52dca7914e4be8a845fb289d090ce37bfe6c16eb832672f219f",
        "index": "52fb49fa6f1b3753372956b4b1becf1032f26c122144ca37937ac2da63b90ff7",
    },
    "bench_smoke": {
        "corpus": "01c2c5d2cc4509ca3f8c4e198bdd142608cc4db688fb65c8a3b132f6ba572da5",
        "index": "cf2fc9e5906c9abacfa382e2603d642469988f72ef6114c91bd6871b1a4318a2",
    },
}


def _feed(h, *items):
    """Hash each item's ``repr`` on its own line (a repr has no raw newline)."""
    for item in items:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\n")


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for doc in corpus.all_documents():
        _feed(h, (
            doc.doc_id, doc.collection_id, doc.title, doc.text,
            [f.key() for f in doc.planted],
        ))
    _feed(h, corpus.vocabulary)
    for q in generate_questions(corpus):
        _feed(h, (
            q.qid, q.text, q.fact.key(), q.expected_answer, q.answer_type.name,
        ))
    return h.hexdigest()


def index_digest(corpus) -> str:
    vocab = Vocabulary()
    indexes = [
        CollectionIndex(coll, vocabulary=vocab) for coll in corpus.collections
    ]
    payload = indexes_to_payload(indexes, vocab)
    h = hashlib.sha256()
    _feed(h, payload["schema"], payload["vocab_table"])
    for entry in payload["collections"]:
        _feed(h, entry["collection_id"])
        for name in _BUFFER_FIELDS:
            buf = entry["buffers"][name]
            _feed(h, name, buf.typecode)
            h.update(buf.tobytes())
    return h.hexdigest()


def digests(name: str) -> dict[str, str]:
    corpus = generate_corpus(CONFIGS[name])
    return {"corpus": corpus_digest(corpus), "index": index_digest(corpus)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_corpus_and_index(name):
    assert digests(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in CONFIGS:
        print(f"{name}: {digests(name)}")
