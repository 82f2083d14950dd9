"""Tests for the materialized paragraph term layer and retrieval hot path.

Covers: ParagraphTerms construction invariants, galloping intersection vs
the reference set intersection (results *and* cost accounting), and the
conjunction cache's logical-work charging.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import Document, SubCollection
from repro.nlp.keywords import Keyword
from repro.nlp.stemming import SHARED_STEM_CACHE, StemCache, cached_stem
from repro.nlp.tokenizer import tokenize
from repro.retrieval.boolean import BooleanRetriever, _intersect_sorted
from repro.retrieval.inverted_index import CollectionIndex


def _index(texts: list[str]) -> CollectionIndex:
    docs = [
        Document(doc_id=i, collection_id=0, title=f"d{i}", text=tx)
        for i, tx in enumerate(texts)
    ]
    return CollectionIndex(SubCollection(collection_id=0, documents=docs))


def _kw(*words: str, priority: int = 0) -> Keyword:
    return Keyword(
        text=" ".join(words),
        stems=tuple(cached_stem(w) for w in words),
        priority=priority,
        is_phrase=len(words) > 1,
    )


# -- ParagraphTerms invariants ----------------------------------------------------
def test_paragraph_terms_cover_every_token():
    index = _index(["The runner was running in Boston , 1999 .\n\nSecond paragraph here ."])
    for doc_id in index.doc_ids:
        for para, _ in index.paragraphs_of(doc_id):
            terms = index.paragraph_terms(para.key)
            assert terms is not None
            tokens = tokenize(para.text)
            assert list(terms.tokens) == tokens
            # the packed accessors AP reads instead of token objects
            assert terms.token_texts() == [tok.text for tok in tokens]
            for i, tok in enumerate(tokens):
                assert terms.token_text(i) == tok.text
                for j in range(i + 1, len(tokens) + 1):
                    assert terms.char_span(i, j) == (tok.start, tokens[j - 1].end)
            assert len(terms.stems_at) == len(tokens)
            # positions map is exactly the inverse of stems_at
            for i, s in enumerate(terms.stems_at):
                assert i in terms.positions_of(s)
            assert sum(len(v) for v in terms.positions.values()) == len(tokens)
            # positions are sorted ascending
            for v in terms.positions.values():
                assert list(v) == sorted(v)


def test_paragraph_terms_missing_key_is_none():
    index = _index(["one short document"])
    assert index.paragraph_terms((999, 0)) is None


def test_sorted_postings_match_postings():
    index = _index(
        ["alpha beta gamma", "beta gamma delta", "gamma delta epsilon"]
    )
    for s in ("alpha", "beta", "gamma", "delta", "nope"):
        stemmed = cached_stem(s)
        view = index.sorted_postings(stemmed)
        assert list(view) == sorted(index.postings(stemmed))
        assert view.readonly  # structural "callers must not mutate"


# -- galloping intersection -------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(0, 60), max_size=40),
    b=st.lists(st.integers(0, 60), max_size=40),
)
def test_intersect_sorted_matches_set_intersection(a, b):
    sa, sb = sorted(set(a)), sorted(set(b))
    small, large = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    assert _intersect_sorted(small, large) == sorted(set(a) & set(b))


def _random_texts(rng: random.Random, n_docs: int) -> list[str]:
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "running", "Boston", "1999"]
    texts = []
    for _ in range(n_docs):
        paras = []
        for _ in range(rng.randint(1, 3)):
            paras.append(" ".join(rng.choices(vocab, k=rng.randint(4, 20))))
        texts.append("\n\n".join(paras))
    return texts


def test_retriever_fast_path_equals_reference_including_accounting():
    rng = random.Random(5)
    index = _index(_random_texts(rng, 25))
    fast = BooleanRetriever(index, conjunction_cache=64, galloping=True)
    ref = BooleanRetriever(index, conjunction_cache=0, galloping=False)
    kw_pool = ["alpha", "beta", "gamma", "delta", "running", "Boston",
               "1999", "missingword"]
    for trial in range(40):
        n = rng.randint(1, 4)
        kws = [
            _kw(*rng.sample(kw_pool, rng.randint(1, 2)), priority=i)
            for i, _ in enumerate(range(n))
        ]
        a = ref.retrieve(kws)
        b = fast.retrieve(kws)
        assert a.matched_docs == b.matched_docs
        assert [p.key for p in a.paragraphs] == [p.key for p in b.paragraphs]
        assert a.used_keywords == b.used_keywords
        assert a.postings_scanned == b.postings_scanned
        assert a.doc_bytes_read == b.doc_bytes_read
        assert a.relaxation_rounds == b.relaxation_rounds


def test_conjunction_cache_hits_charge_logical_work():
    index = _index(_random_texts(random.Random(9), 20))
    retr = BooleanRetriever(index, conjunction_cache=32)
    kws = [_kw("alpha"), _kw("beta", priority=1)]
    first = retr.retrieve(kws)
    assert retr.cache_stats["misses"] >= 1
    hits_before = retr.cache_stats["hits"]
    second = retr.retrieve(kws)
    assert retr.cache_stats["hits"] > hits_before
    # identical results AND identical charged work on the cached round
    assert second.matched_docs == first.matched_docs
    assert second.postings_scanned == first.postings_scanned
    assert second.doc_bytes_read == first.doc_bytes_read


def test_conjunction_cache_is_bounded():
    index = _index(_random_texts(random.Random(2), 10))
    retr = BooleanRetriever(index, conjunction_cache=4)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    for i, w in enumerate(vocab):
        retr.retrieve([_kw(w)])
    assert retr.cache_stats["size"] <= 4


def test_cache_disabled_still_correct():
    index = _index(["alpha beta", "beta gamma"])
    retr = BooleanRetriever(index, conjunction_cache=0)
    r = retr.retrieve([_kw("beta")])
    assert r.matched_docs == [0, 1]
    assert retr.cache_stats == {"hits": 0, "misses": 0, "size": 0}


# -- shared stem cache ------------------------------------------------------------
def test_stem_cache_bounded_lru():
    cache = StemCache(maxsize=3)
    for w in ("running", "jumping", "swimming", "flying"):
        cache(w)
    from repro.nlp.porter import stem

    assert len(cache) == 3
    assert cache("flying") == stem("flying")
    assert cache.hits >= 1


def test_shared_cache_used_by_default_index():
    before = len(SHARED_STEM_CACHE)
    _index(["some freshly invented vocabulary paragraph zorblax"])
    # Indexing routed new words through the shared cache.
    assert len(SHARED_STEM_CACHE) >= before
    assert cached_stem("Zorblax") == cached_stem("zorblax")
