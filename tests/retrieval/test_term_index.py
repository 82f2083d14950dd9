"""Tests for the materialized paragraph term layer and retrieval hot path.

Covers: ParagraphTerms construction invariants, PR's bitset relaxation
loop vs the set-based loop of ``tests/reference.py`` (results *and* cost
accounting), and the stem memo's logical-work charging.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import Document, SubCollection
from repro.nlp.keywords import Keyword
from repro.nlp.stemming import SHARED_STEM_CACHE, StemCache, cached_stem
from repro.nlp.tokenizer import tokenize
from repro.retrieval.boolean import BooleanRetriever, RetrievalResult, relax
from repro.retrieval.inverted_index import CollectionIndex
from tests.reference import retrieve_sets


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
    for para in index.paragraphs:
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
            tid = terms.vocab.lookup(s)
            assert i in terms.keyword_positions([(tid, None, tid >= 0)])[0]
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


# -- bitset relaxation loop vs the set-based reference ----------------------------
_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
          "theta", "running", "Boston", "1999"]


def _random_texts(
    rng: random.Random, n_docs: int, vocab: list[str] = _WORDS, longest: int = 20
) -> list[str]:
    texts = []
    for _ in range(n_docs):
        paras = []
        for _ in range(rng.randint(1, 3)):
            paras.append(" ".join(rng.choices(vocab, k=rng.randint(4, longest))))
        texts.append("\n\n".join(paras))
    return texts


def _collection(
    cid: int, first_doc: int, texts: list[str], step: int = 1
) -> CollectionIndex:
    docs = [
        Document(doc_id=first_doc + step * i, collection_id=cid, title=f"d{i}", text=tx)
        for i, tx in enumerate(texts)
    ]
    return CollectionIndex(SubCollection(collection_id=cid, documents=docs))


def _same(got, want) -> None:
    assert [p.key for p in got.paragraphs] == [p.key for p in want.paragraphs]
    assert got.matched_docs == want.matched_docs
    assert got.used_keywords == want.used_keywords
    assert (got.postings_scanned, got.doc_bytes_read, got.relaxation_rounds) == (
        want.postings_scanned,
        want.doc_bytes_read,
        want.relaxation_rounds,
    )


#: Two collections on the shared vocabulary, of short paragraphs, so that
#: conjunctions come out empty, small and large.  Collection 1's doc ids
#: are 40, 43, 46, ..., and "iota" and "kappa" occur only in it, so in
#: collection 0 they have ids but no postings.  "missingword" has id -1
#: in both.
_FILLER = ["lambda", "omicron", "sigma", "tau", "upsilon", "phi", "chi", "psi"]
_PAIR = [
    _collection(0, 0, _random_texts(random.Random(11), 18, _WORDS + _FILLER, 6)),
    _collection(
        1,
        40,
        _random_texts(
            random.Random(12), 14, _WORDS[:6] + ["iota", "kappa"] + _FILLER, 6
        ),
        step=3,
    ),
]
#: Retrievers that live across examples, so their memos hit.
_LONG_LIVED = {
    (min_docs, quorum): [
        BooleanRetriever(ix, min_docs=min_docs, paragraph_quorum=quorum)
        for ix in _PAIR
    ]
    for min_docs in (1, 2, 3, 4)
    for quorum in (0.5, 1.0)
}
_KEYWORD = st.builds(
    lambda words, priority: _kw(*words, priority=priority),
    st.lists(
        st.sampled_from(_WORDS[:5] + ["iota", "kappa", "missingword"]),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 4),
)


@settings(max_examples=200, deadline=None)
@given(
    keywords=st.lists(_KEYWORD, max_size=5),
    min_docs=st.integers(1, 4),
    quorum=st.sampled_from([0.5, 1.0]),
    order=st.permutations([0, 1]),
)
def test_bitset_loop_matches_set_loop(keywords, min_docs, quorum, order):
    """:func:`relax` over two collections, on fresh and on long-lived
    retrievers, equals the per-stem set loop of ``tests/reference.py``
    collection by collection: paragraphs, matched docs, keywords used and
    every work counter.  Keywords repeat stems and hold phrases, stems
    no document of a collection holds, and stems no collection holds."""
    for retrievers in (
        [BooleanRetriever(ix, min_docs, quorum) for ix in _PAIR],
        _LONG_LIVED[min_docs, quorum],
    ):
        outcomes = list(relax(retrievers, keywords, order))
        assert [o[0] for o in outcomes] == order
        for cid, outcome in zip(order, outcomes):
            _same(RetrievalResult(*outcome), retrieve_sets(retrievers[cid], keywords))


def test_retriever_fast_path_equals_reference_including_accounting():
    rng = random.Random(5)
    index = _index(_random_texts(rng, 25))
    fast = BooleanRetriever(index)
    kw_pool = ["alpha", "beta", "gamma", "delta", "running", "Boston",
               "1999", "missingword"]
    for trial in range(40):
        n = rng.randint(1, 4)
        kws = [
            _kw(*rng.sample(kw_pool, rng.randint(1, 2)), priority=i)
            for i, _ in enumerate(range(n))
        ]
        _same(fast.retrieve(kws), retrieve_sets(fast, kws))


def test_memo_hits_charge_logical_work():
    index = _index(_random_texts(random.Random(9), 20))
    retr = BooleanRetriever(index)
    kws = [_kw("alpha"), _kw("beta", priority=1)]
    first = retr.retrieve(kws)
    assert retr.cache_stats["misses"] >= 1
    hits_before = retr.cache_stats["hits"]
    second = retr.retrieve(kws)
    assert retr.cache_stats["hits"] > hits_before
    # identical results AND identical charged work on the memoized round
    _same(second, first)


def test_memo_holds_one_entry_per_looked_up_stem():
    index = _index(_random_texts(random.Random(2), 10))
    retr = BooleanRetriever(index)
    for w in _WORDS[:7]:
        retr.retrieve([_kw(w)])
    retr.retrieve([_kw("alpha"), _kw("beta", "beta", priority=1)])
    # One miss per distinct stem, whatever the rounds that asked again.
    assert retr.cache_stats == {"hits": 3, "misses": 7, "size": 7}


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
