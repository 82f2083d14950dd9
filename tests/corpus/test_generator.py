"""Tests for the corpus generator."""

import pytest

from repro.corpus import Corpus, CorpusConfig, generate_corpus
from repro.corpus.knowledge import TEMPLATES


SMALL = CorpusConfig(
    n_collections=4,
    docs_per_collection=10,
    vocab_size=300,
    seed=99,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SMALL)


def fact_locations(corpus, fact):
    """Doc ids where ``fact`` was planted."""
    return [
        d.doc_id
        for d in corpus.all_documents()
        if any(f.key() == fact.key() for f in d.planted)
    ]


class TestStructure:
    def test_collection_count(self, corpus):
        assert len(corpus.collections) == 4

    def test_docs_per_collection(self, corpus):
        for coll in corpus.collections:
            assert len(coll) == 10

    def test_doc_ids_unique_and_dense(self, corpus):
        ids = [d.doc_id for d in corpus.all_documents()]
        assert sorted(ids) == list(range(40))

    def test_collection_ids_consistent(self, corpus):
        for coll in corpus.collections:
            for doc in coll.documents:
                assert doc.collection_id == coll.collection_id

    def test_paragraph_structure(self, corpus):
        doc = corpus.collections[0].documents[0]
        paragraphs = doc.text.split("\n\n")
        assert len(paragraphs) >= 1
        assert all(p.strip() for p in paragraphs)

    def test_size_accounting(self, corpus):
        assert corpus.size_bytes == sum(
            d.size_bytes for d in corpus.all_documents()
        )
        assert corpus.n_documents == 40


class TestDeterminism:
    def test_same_seed_same_text(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SMALL)
        for da, db in zip(a.all_documents(), b.all_documents()):
            assert da.text == db.text

    def test_different_seed_different_text(self):
        from dataclasses import replace

        a = generate_corpus(SMALL)
        b = generate_corpus(replace(SMALL, seed=100))
        assert any(
            da.text != db.text
            for da, db in zip(a.all_documents(), b.all_documents())
        )


class TestFactPlanting:
    def test_every_fact_planted_somewhere(self, corpus):
        for fact in corpus.knowledge.facts:
            assert fact_locations(corpus, fact), f"fact {fact} not planted"

    def test_planted_fact_text_present(self, corpus):
        for doc in list(corpus.all_documents())[:10]:
            for fact in doc.planted:
                # The statement mentions both subject and value.
                assert fact.subject in doc.text
                stmt, _ = TEMPLATES[fact.relation]
                if "{value}" in stmt:
                    assert fact.value in doc.text

    def test_replication_bounds(self):
        config = CorpusConfig(
            n_collections=2,
            docs_per_collection=30,
            vocab_size=300,
            fact_replication=(2, 2),
            seed=5,
        )
        corpus = generate_corpus(config)
        for fact in corpus.knowledge.facts[:30]:
            assert len(fact_locations(corpus, fact)) == 2


class TestValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(CorpusConfig(n_collections=0))
        with pytest.raises(ValueError):
            generate_corpus(CorpusConfig(docs_per_collection=0))
        with pytest.raises(ValueError):
            generate_corpus(CorpusConfig(vocab_size=10))


class TestTopicBias:
    def test_collections_have_different_word_statistics(self, corpus):
        """Topic shift should make sub-collection vocabularies diverge —
        the source of the paper's uneven PR granularity."""
        from collections import Counter

        def topwords(coll):
            counter = Counter()
            for doc in coll.documents:
                counter.update(doc.text.lower().split())
            return {w for w, _ in counter.most_common(80)}

        first = topwords(corpus.collections[0])
        last = topwords(corpus.collections[-1])
        assert first != last
