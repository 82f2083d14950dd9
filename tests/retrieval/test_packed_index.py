"""Tests for the packed index data plane: layout, payload, and views.

Covers the equivalence contract of the compact rewrite — the packed
:class:`ParagraphTerms` must reproduce the naive tokenize+stem sequence
exactly — plus payload serialization (bit-identical round trip, remap
under a non-prefix vocabulary), structural immutability of the returned
views, and the on-disk v2 artifact's self-healing.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import Document, SubCollection
from repro.nlp.stemming import cached_stem
from repro.nlp.tokenizer import tokenize
from repro.nlp.vocabulary import Vocabulary
from repro.retrieval.inverted_index import CollectionIndex, StemSetView
from repro.retrieval.packing import (
    PAYLOAD_SCHEMA,
    attach_payload,
    indexes_to_payload,
)


def _index(texts: list[str], vocabulary: Vocabulary | None = None) -> CollectionIndex:
    docs = [
        Document(doc_id=i, collection_id=0, title=f"d{i}", text=tx)
        for i, tx in enumerate(texts)
    ]
    return CollectionIndex(
        SubCollection(collection_id=0, documents=docs), vocabulary=vocabulary
    )


# -- the packed layer reproduces the naive path -----------------------------------
_WORDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDE0123456789'.,-", min_size=1, max_size=12
)
_PARAGRAPH = st.lists(_WORDS, min_size=1, max_size=40).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(paragraphs=st.lists(_PARAGRAPH, min_size=1, max_size=4))
def test_paragraph_terms_roundtrip_naive_tokenize_stem(paragraphs):
    """Packed stems_at/tokens == re-running tokenize+stem on the text."""
    text = "\n\n".join(paragraphs)
    index = _index([text])
    for doc_id in index.doc_ids:
        for para, _ in index.paragraphs_of(doc_id):
            terms = index.paragraph_terms(para.key)
            assert terms is not None
            tokens = tokenize(para.text)
            naive = tuple(
                cached_stem(tok.text) if tok.is_word else tok.text
                for tok in tokens
            )
            assert tuple(terms.tokens) == tuple(tokens)
            assert terms.stems_at == naive
            for i, s in enumerate(naive):
                assert i in terms.positions_of(s)


@settings(max_examples=30, deadline=None)
@given(paragraphs=st.lists(_PARAGRAPH, min_size=1, max_size=3))
def test_payload_attach_preserves_paragraph_layer(paragraphs):
    """Attaching the payload under a fresh vocab reproduces every view."""
    text = "\n\n".join(paragraphs)
    docs = [Document(doc_id=0, collection_id=0, title="d", text=text)]
    collection = SubCollection(collection_id=0, documents=docs)

    class _Corpus:
        collections = [collection]

    original = CollectionIndex(collection)
    payload = pickle.loads(pickle.dumps(indexes_to_payload([original])))
    (attached,) = attach_payload(_Corpus(), payload, vocabulary=Vocabulary())
    for doc_id in original.doc_ids:
        for (pa, sa), (pb, sb) in zip(
            original.paragraphs_of(doc_id), attached.paragraphs_of(doc_id)
        ):
            assert pa.key == pb.key
            assert frozenset(sa) == frozenset(sb)
            ta = original.paragraph_terms(pa.key)
            tb = attached.paragraph_terms(pb.key)
            assert ta.stems_at == tb.stems_at
            assert ta.positions == tb.positions


# -- payload round trip -----------------------------------------------------------
@pytest.fixture()
def small_stack():
    texts = [
        "The runner was running in Boston , 1999 .\n\nSecond paragraph here .",
        "alpha beta gamma\n\nbeta gamma delta",
        "gamma delta epsilon runner",
    ]
    return texts, _index(texts)


def _corpus_of(index: CollectionIndex, texts: list[str]):
    docs = [
        Document(doc_id=i, collection_id=0, title=f"d{i}", text=tx)
        for i, tx in enumerate(texts)
    ]

    class _Corpus:
        collections = [SubCollection(collection_id=0, documents=docs)]

    return _Corpus()


def test_payload_roundtrip_bit_identical(small_stack):
    texts, index = small_stack
    blob = pickle.dumps(
        indexes_to_payload([index]), protocol=pickle.HIGHEST_PROTOCOL
    )
    cold = Vocabulary()
    attached = attach_payload(
        _corpus_of(index, texts), pickle.loads(blob), vocabulary=cold
    )
    blob_again = pickle.dumps(
        indexes_to_payload(attached, vocabulary=cold),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    assert blob == blob_again


def test_attach_remaps_under_non_prefix_vocabulary(small_stack):
    """A vocab with conflicting ids forces the remap path; results match."""
    texts, index = small_stack
    payload = pickle.loads(pickle.dumps(indexes_to_payload([index])))
    warm = Vocabulary(["zz_unrelated", "yy_other"])  # ids 0,1 already taken
    assert not warm.matches_prefix(payload["vocab_table"])
    (attached,) = attach_payload(_corpus_of(index, texts), payload, vocabulary=warm)
    for stem_, df in index.iter_terms():
        assert attached.document_frequency(stem_) == df
        assert list(attached.sorted_postings(stem_)) == list(
            index.sorted_postings(stem_)
        )
        assert attached.postings(stem_) == index.postings(stem_)
    for doc_id in index.doc_ids:
        for (pa, sa), (pb, sb) in zip(
            index.paragraphs_of(doc_id), attached.paragraphs_of(doc_id)
        ):
            assert frozenset(sa) == frozenset(sb)
            assert (
                index.paragraph_terms(pa.key).positions
                == attached.paragraph_terms(pb.key).positions
            )


def test_attach_rejects_wrong_schema(small_stack):
    texts, index = small_stack
    payload = indexes_to_payload([index])
    payload["schema"] = "packed-index/v1"
    with pytest.raises(ValueError):
        attach_payload(_corpus_of(index, texts), payload)


def test_attach_rejects_mismatched_corpus(small_stack):
    texts, index = small_stack
    payload = indexes_to_payload([index])
    with pytest.raises(ValueError):
        attach_payload(_corpus_of(index, texts[:-1]), payload)
    assert PAYLOAD_SCHEMA == payload["schema"]


# -- immutability of returned views ----------------------------------------------
def test_sorted_postings_view_is_readonly(small_stack):
    _, index = small_stack
    view = index.sorted_postings(cached_stem("gamma"))
    assert view.readonly
    with pytest.raises(TypeError):
        view[0] = 99


def test_paragraph_stem_sets_are_immutable_views(small_stack):
    _, index = small_stack
    for doc_id in index.doc_ids:
        for _para, stems in index.paragraphs_of(doc_id):
            assert isinstance(stems, StemSetView)
            assert not hasattr(stems, "add")
            # Set-algebra interop with frozenset still works.
            assert (stems & frozenset(stems)) == frozenset(stems)
            assert "surely-not-a-stem" not in stems


def test_global_stems_alias_is_gone():
    import repro.retrieval.inverted_index as m

    assert not hasattr(m, "_GLOBAL_STEMS")


# -- the on-disk v2 artifact ------------------------------------------------------
def test_disk_cache_attach_and_self_heal(tmp_path, monkeypatch):
    from repro.corpus import CorpusConfig
    from repro.experiments.context import (
        load_or_build_indexes,
        load_or_generate_corpus,
    )

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = CorpusConfig(
        n_collections=2, docs_per_collection=10, vocab_size=300, seed=23
    )
    corpus = load_or_generate_corpus(config)
    built, source, _ = load_or_build_indexes(corpus, config)
    assert source == "built"
    cached, source, _ = load_or_build_indexes(corpus, config)
    assert source == "cache"
    for a, b in zip(built, cached):
        for stem_, df in a.iter_terms():
            assert b.document_frequency(stem_) == df
    # Corrupt the artifact: the loader must fall back to a rebuild.
    (artifact,) = list(tmp_path.glob("index-*.pkl"))
    artifact.write_bytes(b"not a pickle")
    healed, source, _ = load_or_build_indexes(corpus, config)
    assert source == "built"
    assert [ix.stats.n_postings for ix in healed] == [
        ix.stats.n_postings for ix in built
    ]


def test_index_cache_selftest_passes(tmp_path, monkeypatch):
    from repro.corpus import CorpusConfig
    from repro.experiments.context import index_cache_selftest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = index_cache_selftest(
        CorpusConfig(
            n_collections=2, docs_per_collection=10, vocab_size=300, seed=29
        ),
        n_questions=4,
    )
    assert report["ok"]
    assert report["roundtrip_identical"]
    assert report["queries_identical"]
    assert report["payload_bytes"] > 0
