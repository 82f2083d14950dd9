"""Synthetic TREC-like document collection generator.

Replaces the 3 GB TREC-9 collection with a generated corpus that preserves
the statistics the paper's results depend on:

* **Zipfian vocabulary** with per-sub-collection topic bias, so keyword
  document frequencies vary across the 8 sub-collections (the source of
  the paper's uneven PR sub-task granularity, Section 6.2);
* **planted facts** from the knowledge base, each replicated into a
  configurable number of documents, giving every generated question a
  ground-truth answer somewhere in the text;
* **distractor entities** sprinkled into running text, so answer
  processing has to discriminate real candidates (cost and accuracy both
  become non-trivial).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

import numpy as np

from .knowledge import TEMPLATES, Fact, KnowledgeBase, build_knowledge_base
from .zipf import ZipfSampler, make_vocabulary

__all__ = ["CorpusConfig", "Document", "SubCollection", "Corpus", "generate_corpus"]


@dataclass(frozen=True, slots=True)
class CorpusConfig:
    """Knobs for corpus generation (defaults give a laptop-scale corpus)."""

    n_collections: int = 8
    docs_per_collection: int = 60
    paragraphs_per_doc: tuple[int, int] = (3, 8)
    sentences_per_paragraph: tuple[int, int] = (2, 5)
    words_per_sentence: tuple[int, int] = (8, 20)
    vocab_size: int = 4000
    zipf_exponent: float = 1.05
    #: Each fact is planted into this many randomly chosen documents.
    fact_replication: tuple[int, int] = (1, 3)
    #: Probability that a running-text sentence mentions a random entity.
    distractor_rate: float = 0.15
    seed: int = 42

    def validate(self) -> None:
        if self.n_collections < 1:
            raise ValueError("need at least one sub-collection")
        if self.docs_per_collection < 1:
            raise ValueError("need at least one document per sub-collection")
        if self.vocab_size < 100:
            raise ValueError("vocabulary too small to be Zipf-like")


@dataclass(slots=True)
class Document:
    """One generated document."""

    doc_id: int
    collection_id: int
    title: str
    text: str
    #: Facts planted in this document (ground truth for tests).
    planted: list[Fact] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))


@dataclass(slots=True)
class SubCollection:
    """A logical shard of the corpus ("the TREC-9 collection was divided
    into 8 sub-collections, separately indexed" — Section 6)."""

    collection_id: int
    documents: list[Document]

    @property
    def size_bytes(self) -> int:
        return sum(d.size_bytes for d in self.documents)

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(slots=True)
class Corpus:
    """The full generated corpus plus its generating knowledge."""

    config: CorpusConfig
    knowledge: KnowledgeBase
    vocabulary: list[str]
    collections: list[SubCollection]

    @property
    def n_documents(self) -> int:
        return sum(len(c) for c in self.collections)

    @property
    def size_bytes(self) -> int:
        return sum(c.size_bytes for c in self.collections)

    def all_documents(self) -> t.Iterator[Document]:
        for coll in self.collections:
            yield from coll.documents

    def fact_locations(self, fact: Fact) -> list[int]:
        """Doc ids where ``fact`` was planted."""
        return [
            d.doc_id
            for d in self.all_documents()
            if any(f.key() == fact.key() for f in d.planted)
        ]


def _render_sentence(
    rng: np.random.Generator,
    sampler: ZipfSampler,
    vocab: list[str],
    config: CorpusConfig,
    entity_pool: list[str],
) -> str:
    lo, hi = config.words_per_sentence
    n = int(rng.integers(lo, hi + 1))
    idx = sampler.sample(n)
    words = [vocab[i] for i in idx]
    if entity_pool and rng.random() < config.distractor_rate:
        pos = int(rng.integers(0, len(words)))
        words.insert(pos, str(rng.choice(entity_pool)))
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _render_fact(fact: Fact, kb: KnowledgeBase, rng: np.random.Generator) -> str:
    statement, _question = TEMPLATES[fact.relation]
    profession = ""
    if "{profession}" in statement:
        profession = str(rng.choice(
            ["inventor", "explorer", "composer", "scientist", "author",
             "actress", "leader"]
        ))
    return statement.format(
        subject=fact.subject, value=fact.value, profession=profession
    )


def generate_corpus(
    config: CorpusConfig | None = None,
    knowledge: KnowledgeBase | None = None,
) -> Corpus:
    """Generate a reproducible corpus from ``config``.

    The same config always yields byte-identical text (seeded RNGs all the
    way down), which keeps simulations and benchmarks deterministic.
    """
    config = config or CorpusConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)
    kb = knowledge or build_knowledge_base(seed=config.seed + 1)
    vocab = make_vocabulary(config.vocab_size, seed=config.seed + 2)
    entity_pool = list(kb.entities.keys())

    # Assign each fact to its target documents up front.
    n_docs_total = config.n_collections * config.docs_per_collection
    placements: dict[int, list[Fact]] = {i: [] for i in range(n_docs_total)}
    lo_rep, hi_rep = config.fact_replication
    for fact in kb.facts:
        n_rep = int(rng.integers(lo_rep, hi_rep + 1))
        targets = rng.choice(n_docs_total, size=min(n_rep, n_docs_total),
                             replace=False)
        for doc_id in targets:
            placements[int(doc_id)].append(fact)

    collections: list[SubCollection] = []
    doc_id = 0
    for cid in range(config.n_collections):
        # Per-collection topic bias: shifts mid-frequency vocabulary.
        sampler = ZipfSampler(
            config.vocab_size,
            exponent=config.zipf_exponent,
            topic_shift=cid / config.n_collections,
            seed=config.seed + 100 + cid,
        )
        docs: list[Document] = []
        for _ in range(config.docs_per_collection):
            p_lo, p_hi = config.paragraphs_per_doc
            s_lo, s_hi = config.sentences_per_paragraph
            n_paragraphs = int(rng.integers(p_lo, p_hi + 1))
            fact_queue = list(placements[doc_id])
            rng.shuffle(fact_queue)  # type: ignore[arg-type]
            paragraphs: list[str] = []
            for _p in range(n_paragraphs):
                n_sent = int(rng.integers(s_lo, s_hi + 1))
                sents = [
                    _render_sentence(rng, sampler, vocab, config, entity_pool)
                    for _ in range(n_sent)
                ]
                if fact_queue:
                    fact = fact_queue.pop()
                    pos = int(rng.integers(0, len(sents) + 1))
                    sents.insert(pos, _render_fact(fact, kb, rng))
                paragraphs.append(" ".join(sents))
            # Any facts left over (more facts than paragraphs): append one
            # paragraph holding them all.
            if fact_queue:
                paragraphs.append(
                    " ".join(_render_fact(f, kb, rng) for f in fact_queue)
                )
            title_idx = sampler.sample(3)
            title = " ".join(vocab[i] for i in title_idx).title()
            docs.append(
                Document(
                    doc_id=doc_id,
                    collection_id=cid,
                    title=title,
                    text="\n\n".join(paragraphs),
                    planted=list(placements[doc_id]),
                )
            )
            doc_id += 1
        collections.append(SubCollection(cid, docs))

    return Corpus(
        config=config, knowledge=kb, vocabulary=vocab, collections=collections
    )
