"""Tests for the inverted index over synthetic sub-collections."""

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.generator import Document, SubCollection
from repro.retrieval import CollectionIndex, StemCache, split_paragraphs


def make_collection(texts, collection_id=0):
    docs = [
        Document(doc_id=i, collection_id=collection_id, title=f"doc {i}",
                 text=text)
        for i, text in enumerate(texts)
    ]
    return SubCollection(collection_id, docs)


@pytest.fixture()
def index():
    return CollectionIndex(
        make_collection(
            [
                "The telephone was invented long ago.\n\nBells ring daily.",
                "Inventing telephones requires patience.",
                "Cats chase mice in the garden.",
            ]
        )
    )


class TestIndexing:
    def test_stats(self, index):
        assert index.stats.n_documents == 3
        assert index.stats.n_paragraphs == 4
        assert index.stats.n_postings > 0
        assert index.stats.index_bytes == 8 * index.stats.n_postings

    def test_stemmed_matching(self, index):
        # "invented" and "Inventing" share the stem "invent".
        assert index.document_frequency("invent") == 2

    def test_stopwords_not_indexed(self, index):
        assert index.document_frequency("the") == 0

    def test_postings_carry_term_frequency(self, index):
        postings = index.postings("telephon")
        assert postings[0] == 1
        assert postings[1] == 1

    def test_unknown_stem_empty(self, index):
        assert index.postings("zzzz") == {}
        assert index.document_frequency("zzzz") == 0

    def test_paragraph_postings_of_stem(self, index):
        assert [p.key for p in index.paragraphs] == [(0, 0), (0, 1), (1, 0), (2, 0)]
        assert "telephone" in index.paragraphs[0].text
        # "invented" (doc 0, first paragraph) and "Inventing" (doc 1).
        assert list(index.paragraph_postings("invent")) == [0, 2]
        assert list(index.paragraph_postings("bell")) == [1]
        assert len(index.paragraph_postings("zzzz")) == 0
        assert index.paragraph_postings("invent").readonly

    def test_doc_bytes(self, index):
        assert index.doc_bytes(2) == len("Cats chase mice in the garden.")

    def test_doc_ids(self, index):
        assert sorted(index.doc_ids) == [0, 1, 2]


class TestStemCache:
    def test_caches(self):
        cache = StemCache()
        assert cache("Running") == "run"
        assert cache("running") == "run"
        assert len(cache) == 1

    def test_agrees_with_stemmer(self):
        from repro.nlp import stem

        cache = StemCache()
        for w in ("connection", "invented", "telephones"):
            assert cache(w) == stem(w)


class TestSplitParagraphs:
    def test_basic_split(self):
        paras = split_paragraphs(5, 2, "one\n\ntwo\n\nthree")
        assert [p.text for p in paras] == ["one", "two", "three"]
        assert [p.index for p in paras] == [0, 1, 2]
        assert all(p.doc_id == 5 and p.collection_id == 2 for p in paras)

    def test_blank_chunks_dropped(self):
        paras = split_paragraphs(0, 0, "a\n\n\n\n  \n\nb")
        assert [p.text for p in paras] == ["a", "b"]

    def test_keys_unique(self):
        paras = split_paragraphs(1, 0, "x\n\ny")
        assert paras[0].key != paras[1].key

    def test_size_bytes(self):
        para = split_paragraphs(0, 0, "hello")[0]
        assert para.size_bytes == 5

    def test_size_bytes_are_utf8_and_survive_pickling(self):
        import pickle

        para = split_paragraphs(0, 0, "héllo")[0]
        doc = Document(doc_id=0, collection_id=0, title="t", text="héllo wörld")
        assert (para.size_bytes, doc.size_bytes) == (6, 13)
        assert pickle.loads(pickle.dumps(para)).size_bytes == 6
        assert pickle.loads(pickle.dumps(doc)).size_bytes == 13
        # A stored size is not identity: equal text, equal paragraph.
        assert para == split_paragraphs(0, 0, "héllo")[0]


class TestOnGeneratedCorpus:
    def test_index_full_corpus(self):
        corpus = generate_corpus(
            CorpusConfig(n_collections=2, docs_per_collection=8,
                         vocab_size=300, seed=11)
        )
        index = CollectionIndex(corpus.collections[0])
        assert index.stats.n_documents == 8
        # Planted entity names must be retrievable.
        doc = corpus.collections[0].documents[0]
        if doc.planted:
            from repro.nlp import stem

            word = doc.planted[0].subject.split()[0]
            assert index.document_frequency(stem(word)) >= 1
