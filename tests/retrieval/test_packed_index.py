"""Tests for the packed index data plane: layout, payload, and views.

Covers the equivalence contract of the compact rewrite — the packed
:class:`ParagraphTerms` must reproduce the naive tokenize+stem sequence
exactly — plus payload serialization (bit-identical round trip, remap
under a non-prefix vocabulary), structural immutability of the returned
views, and the on-disk artifact's self-healing (a stale ``v2`` payload is
refused and rebuilt, never misread).
"""

from __future__ import annotations

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import Document, SubCollection
from repro.nlp.keywords import Keyword
from repro.nlp.stemming import cached_stem
from repro.nlp.tokenizer import tokenize
from repro.nlp.vocabulary import Vocabulary
from repro.retrieval.boolean import BooleanRetriever
from repro.retrieval.inverted_index import CollectionIndex, StemCache
from repro.retrieval.packing import (
    _BUFFER_FIELDS,
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
    for para in index.paragraphs:
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
            tid = terms.vocab.lookup(s)
            assert i in terms.keyword_positions([(tid, None, tid >= 0)])[0]


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
    assert _paragraph_postings(attached) == _paragraph_postings(original)
    assert attached.paragraphs == original.paragraphs
    for para in original.paragraphs:
        ta = original.paragraph_terms(para.key)
        tb = attached.paragraph_terms(para.key)
        assert ta.stems_at == tb.stems_at
        assert ta.positions == tb.positions


def _paragraph_postings(index: CollectionIndex) -> dict[str, list[int]]:
    """Every stem's paragraph ordinals, keyed by stem text so indexes under
    different vocabularies compare."""
    return {
        stem_: list(index.paragraph_postings(stem_))
        for stem_, _ in index.iter_terms()
    }


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
    assert attached[0].vocab is cold

    # Raw pickle bytes also record which equal strings are one object (a
    # one-letter term and an array typecode); compare after one decode.
    def decoded(b: bytes) -> bytes:
        return pickle.dumps(pickle.loads(b), protocol=pickle.HIGHEST_PROTOCOL)

    assert decoded(blob) == decoded(blob_again)


def test_fresh_vocabulary_and_stem_cache_are_kept(small_stack):
    """An empty ``Vocabulary()`` / ``StemCache()`` is falsy (it has a
    ``__len__``) but is still the caller's choice, not the shared one."""
    texts, index = small_stack
    cold = Vocabulary()
    (attached,) = attach_payload(
        _corpus_of(index, texts), indexes_to_payload([index]), vocabulary=cold
    )
    assert attached.vocab is cold
    assert indexes_to_payload([attached], vocabulary=Vocabulary())["vocab_table"] == []
    cache = StemCache()
    collection = _corpus_of(index, texts).collections[0]
    assert CollectionIndex(collection, stemmer=cache)._stem is cache


def test_attach_ignores_extra_collection_entry_keys(small_stack):
    """Artifacts whose collection entries carry more than ``collection_id``
    and ``buffers`` (older writers added a per-collection sketch) attach to
    the same indexes."""
    texts, index = small_stack
    plain = indexes_to_payload([index])
    extra = dict(plain)
    extra["collections"] = [
        {**entry, "sketch": {"n_documents": len(texts)}}
        for entry in plain["collections"]
    ]

    def reserialized(payload) -> bytes:
        vocab = Vocabulary()
        attached = attach_payload(_corpus_of(index, texts), payload, vocabulary=vocab)
        return pickle.dumps(indexes_to_payload(attached, vocabulary=vocab))

    assert reserialized(extra) == reserialized(plain)


def test_attach_remaps_under_non_prefix_vocabulary(small_stack):
    """A vocab with conflicting ids forces the remap path; results match."""
    texts, index = small_stack
    payload = pickle.loads(pickle.dumps(indexes_to_payload([index])))
    warm = Vocabulary(["zz_unrelated", "yy_other"])  # ids 0,1 already taken
    assert not warm.matches_prefix(payload["vocab_table"])
    (attached,) = attach_payload(_corpus_of(index, texts), payload, vocabulary=warm)
    # Every remapped buffer is the one a fresh build into ``warm`` makes:
    # the per-paragraph id order is re-sorted by the build's own kernel.
    fresh = CollectionIndex(
        _corpus_of(index, texts).collections[0], vocabulary=warm
    )
    for name in _BUFFER_FIELDS:
        got, want = getattr(attached.buffers, name), getattr(fresh.buffers, name)
        assert (got.typecode, got.tobytes()) == (want.typecode, want.tobytes()), name
    assert attached.buffers.stem_ids != index.buffers.stem_ids  # ids did move
    for stem_, df in index.iter_terms():
        assert attached.document_frequency(stem_) == df
        assert list(attached.sorted_postings(stem_)) == list(
            index.sorted_postings(stem_)
        )
        assert attached.postings(stem_) == index.postings(stem_)
    assert _paragraph_postings(attached) == _paragraph_postings(index)
    for para in index.paragraphs:
        assert (
            index.paragraph_terms(para.key).positions
            == attached.paragraph_terms(para.key).positions
        )
    # Queries answer the same: the remapped ids reach the same slots.
    words = ["runner", "gamma", "delta", "Boston", "beta", "nowhere"]
    for quorum in (0.5, 1.0):
        fresh_pr = BooleanRetriever(index, min_docs=1, paragraph_quorum=quorum)
        attached_pr = BooleanRetriever(attached, min_docs=1, paragraph_quorum=quorum)
        for n in range(1, len(words) + 1):
            for start in range(len(words) - n + 1):
                kws = [
                    Keyword(w, (cached_stem(w),), priority=i)
                    for i, w in enumerate(words[start : start + n])
                ]
                a, b = fresh_pr.retrieve(kws), attached_pr.retrieve(kws)
                assert [p.key for p in a.paragraphs] == [p.key for p in b.paragraphs]
                assert (a.matched_docs, a.postings_scanned, a.doc_bytes_read) == (
                    b.matched_docs, b.postings_scanned, b.doc_bytes_read
                )


def test_attach_rejects_wrong_schema(small_stack):
    texts, index = small_stack
    payload = indexes_to_payload([index])
    payload["schema"] = "packed-index/v1"
    with pytest.raises(ValueError):
        attach_payload(_corpus_of(index, texts), payload)


def _v2_payload(payload: dict) -> dict:
    """``payload`` rewritten in the v2 layout: per-paragraph sorted stem-id
    runs (``pset_*``) where v3 keeps paragraph postings."""
    stale = {**payload, "schema": "packed-index/v2", "collections": []}
    for entry in payload["collections"]:
        raw = dict(entry["buffers"])
        pp_offsets, pp_ords = raw.pop("pp_offsets"), raw.pop("pp_ords")
        n_paras = len(raw["t_offsets"]) - 1
        stems: list[list[int]] = [[] for _ in range(n_paras)]
        for slot, tid in enumerate(raw["p_terms"]):
            for o in pp_ords[pp_offsets[slot] : pp_offsets[slot + 1]]:
                stems[o].append(tid)
        raw["pset_offsets"] = array("I", (0,))
        raw["pset_ids"] = array("i")
        for ids in stems:
            raw["pset_ids"].extend(sorted(ids))
            raw["pset_offsets"].append(len(raw["pset_ids"]))
        stale["collections"].append({**entry, "buffers": raw})
    return stale


def test_v2_payload_is_refused(small_stack):
    """A ``packed-index/v2`` payload never attaches, whatever it holds: not
    as it is, and not relabelled as v3 (its buffers do not fit)."""
    texts, index = small_stack
    stale = _v2_payload(indexes_to_payload([index]))
    with pytest.raises(ValueError):
        attach_payload(_corpus_of(index, texts), stale)
    with pytest.raises(ValueError):
        attach_payload(
            _corpus_of(index, texts), {**stale, "schema": PAYLOAD_SCHEMA}
        )


def test_v2_artifact_on_disk_is_rebuilt(tmp_path, monkeypatch):
    """The loader treats a v2 artifact as a miss: it rebuilds, and the next
    load attaches the v3 payload it wrote in its place."""
    from repro.corpus import CorpusConfig
    from repro.experiments.context import (
        load_or_build_indexes,
        load_or_generate_corpus,
    )

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = CorpusConfig(
        n_collections=2, docs_per_collection=8, vocab_size=300, seed=37
    )
    corpus = load_or_generate_corpus(config)
    built, source, _ = load_or_build_indexes(corpus, config)
    assert source == "built"
    (artifact,) = list(tmp_path.glob("index-*.pkl"))
    fresh = pickle.loads(artifact.read_bytes())
    artifact.write_bytes(pickle.dumps(_v2_payload(fresh)))
    rebuilt, source, _ = load_or_build_indexes(corpus, config)
    assert source == "built"
    assert pickle.loads(artifact.read_bytes())["schema"] == PAYLOAD_SCHEMA
    cached, source, _ = load_or_build_indexes(corpus, config)
    assert source == "cache"
    for a, b in zip(built, cached):
        assert _paragraph_postings(a) == _paragraph_postings(b)


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


def test_paragraph_postings_are_readonly_views(small_stack):
    _, index = small_stack
    view = index.paragraph_postings(cached_stem("gamma"))
    assert list(view) == [2, 3, 4]
    assert view.readonly
    with pytest.raises(TypeError):
        view[0] = 99
    assert isinstance(index.paragraphs, tuple)
    assert len(index.paragraph_postings("surely-not-a-stem")) == 0


def test_global_stems_alias_is_gone():
    import repro.retrieval.inverted_index as m

    assert not hasattr(m, "_GLOBAL_STEMS")


# -- the on-disk artifact ---------------------------------------------------------
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
