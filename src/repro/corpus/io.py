"""Corpus persistence: save/load the generated collection as JSON.

Lets a study pin the *exact* corpus (not just the seed) alongside its
results, and lets non-Python tooling inspect the documents.  Gzip is used
when the filename ends in ``.gz``.
"""

from __future__ import annotations

import gzip
import json
import pathlib

from ..nlp.entities import EntityType
from .generator import Corpus, CorpusConfig, Document, SubCollection
from .knowledge import EntityRecord, Fact, KnowledgeBase

__all__ = ["save_corpus", "load_corpus"]

_FORMAT_VERSION = 1


def _open(path: pathlib.Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _fact_to_dict(fact: Fact) -> dict:
    return {
        "subject": fact.subject,
        "relation": fact.relation,
        "value": fact.value,
        "answer_type": fact.answer_type.value,
    }


def _fact_from_dict(d: dict) -> Fact:
    return Fact(
        subject=d["subject"],
        relation=d["relation"],
        value=d["value"],
        answer_type=EntityType(d["answer_type"]),
    )


def save_corpus(corpus: Corpus, path: str | pathlib.Path) -> None:
    """Serialize ``corpus`` (documents, knowledge base, config) to JSON."""
    p = pathlib.Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "config": {
            "n_collections": corpus.config.n_collections,
            "docs_per_collection": corpus.config.docs_per_collection,
            "paragraphs_per_doc": list(corpus.config.paragraphs_per_doc),
            "sentences_per_paragraph": list(corpus.config.sentences_per_paragraph),
            "words_per_sentence": list(corpus.config.words_per_sentence),
            "vocab_size": corpus.config.vocab_size,
            "zipf_exponent": corpus.config.zipf_exponent,
            "fact_replication": list(corpus.config.fact_replication),
            "distractor_rate": corpus.config.distractor_rate,
            "seed": corpus.config.seed,
        },
        "vocabulary": corpus.vocabulary,
        "knowledge": {
            "nationalities": corpus.knowledge.nationalities,
            "entities": [
                {
                    "name": rec.name,
                    "type": rec.type.value,
                    "facts": [_fact_to_dict(f) for f in rec.facts],
                }
                for rec in corpus.knowledge.entities.values()
            ],
        },
        "collections": [
            {
                "collection_id": coll.collection_id,
                "documents": [
                    {
                        "doc_id": doc.doc_id,
                        "title": doc.title,
                        "text": doc.text,
                        "planted": [_fact_to_dict(f) for f in doc.planted],
                    }
                    for doc in coll.documents
                ],
            }
            for coll in corpus.collections
        ],
    }
    with _open(p, "w") as fh:
        json.dump(payload, fh)


def load_corpus(path: str | pathlib.Path) -> Corpus:
    """Load a corpus previously written by :func:`save_corpus`."""
    p = pathlib.Path(path)
    with _open(p, "r") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported corpus format version: {version!r}")

    cfg = payload["config"]
    config = CorpusConfig(
        n_collections=cfg["n_collections"],
        docs_per_collection=cfg["docs_per_collection"],
        paragraphs_per_doc=tuple(cfg["paragraphs_per_doc"]),
        sentences_per_paragraph=tuple(cfg["sentences_per_paragraph"]),
        words_per_sentence=tuple(cfg["words_per_sentence"]),
        vocab_size=cfg["vocab_size"],
        zipf_exponent=cfg["zipf_exponent"],
        fact_replication=tuple(cfg["fact_replication"]),
        distractor_rate=cfg["distractor_rate"],
        seed=cfg["seed"],
    )

    kb = KnowledgeBase()
    for ent in payload["knowledge"]["entities"]:
        record = EntityRecord(ent["name"], EntityType(ent["type"]))
        record.facts.extend(_fact_from_dict(f) for f in ent["facts"])
        kb.add_entity(record)
    kb.nationalities = list(payload["knowledge"]["nationalities"])

    collections = []
    for coll in payload["collections"]:
        docs = [
            Document(
                doc_id=d["doc_id"],
                collection_id=coll["collection_id"],
                title=d["title"],
                text=d["text"],
                planted=[_fact_from_dict(f) for f in d["planted"]],
            )
            for d in coll["documents"]
        ]
        collections.append(SubCollection(coll["collection_id"], docs))

    return Corpus(
        config=config,
        knowledge=kb,
        vocabulary=list(payload["vocabulary"]),
        collections=collections,
    )
