"""The cold path's bulk kernels against their one-at-a-time references.

A cold server generates the corpus and indexes it.  Both layers now do
per-token work in C and per-distinct-value work in Python: the Zipf
sampler draws its uniforms in blocks, the tokenizer splits a whole
collection with one ``re.split``, and the indexer resolves each distinct
surface form once per build.  Each kernel is checked here against the path
it replaced, on open inputs (Hypothesis) and on hand-built edge cases:

* :func:`~repro.nlp.tokenizer.split_tokens` gives :func:`tokenize`'s
  ``(text, start, end)`` triples;
* block :class:`~repro.corpus.ZipfSampler` draws equal per-call
  ``rng.random(n)`` draws, for any sequence of ``n``;
* ``ParagraphTerms.from_text``, a collection build and a whole-corpus
  build through one surface-form table match the token-by-token builds
  in ``tests/reference.py``, byte for byte, ids in first-occurrence
  order.

The byte-level oracles over whole generated corpora are in
``tests/corpus/test_golden_corpus.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusConfig, Document, SubCollection, ZipfSampler
from repro.corpus import generate_corpus
from repro.nlp.stemming import StemCache
from repro.nlp.tokenizer import split_tokens, tokenize
from repro.nlp.vocabulary import Vocabulary
from repro.retrieval.inverted_index import (
    CollectionIndex,
    ParagraphTerms,
    build_indexes,
)
from repro.retrieval.packing import _BUFFER_FIELDS
from tests.reference import build_buffers_by_token, paragraph_terms_by_token

#: Characters the token pattern cares about, plus ones it must skip:
#: apostrophe look-alikes it does not accept, and non-ASCII letters.
_ALPHABET = (
    "abcxyzRUNThe0123456789"
    "$%,.'-()[]{}\";:!?"
    "’‘`"
    "éßÅ"
    " \t\n"
)
_FRAGMENTS = [
    "Run", "run", "RUN", "The", "the", "THE", "don't", "o'clock", "x-ray",
    "$1,234.56", "12%", "1999", "3.14", "$5", "1,23", "(", ")", "-", "--",
    " ", "  ", "\n", "\n\n", ". ", ", ", "Zürich", "isn't", "It's", "'quoted'",
]
texts = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=80),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
)

#: Hand-built paragraphs: case variants of one stem, of one stopword,
#: money and percentages, contractions and hyphens.
PARAGRAPHS = [
    "",
    "Run run RUN running Runs.",
    "The the THE theory, the end.",
    "$1,234.56 12% and 1999 or 3.14 -- $5, 1,23.",
    "I don't know why it's x-ray-free; the well-known one isn't.",
    "Run, the RUN runs: (running) [ran] {runner} \"run\" -- run!",
]


def triples(text):
    forms, starts, lengths = split_tokens(text)
    return [(f, s, s + n) for f, s, n in zip(forms, starts, lengths)]


class TestSplitTokens:
    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_matches_tokenize(self, text):
        assert triples(text) == [(t.text, t.start, t.end) for t in tokenize(text)]

    @pytest.mark.parametrize("text", PARAGRAPHS)
    def test_hand_built(self, text):
        assert triples(text) == [(t.text, t.start, t.end) for t in tokenize(text)]

    def test_three_parallel_lists(self):
        forms, starts, lengths = split_tokens("  $5 don't-x ")
        assert (forms, starts.tolist(), lengths.tolist()) == (
            ["$5", "don't", "-", "x"], [2, 5, 10, 11], [2, 5, 1, 1]
        )


def per_call_draws(sampler_args, ns):
    """``rng.random(n)`` per call, each mapped through the sampler's CDF."""
    ref = ZipfSampler(*sampler_args)
    out = []
    for n in ns:
        slots = np.searchsorted(ref._cum, ref.rng.random(n), side="right")
        out.append(ref._word_for_slot[np.minimum(slots, ref.vocab_size - 1)])
    return out


class TestZipfBlocks:
    @given(
        ns=st.lists(
            st.one_of(st.integers(0, 40), st.integers(4000, 9000)), max_size=12
        ),
        shift=st.sampled_from([0.0, 0.25, 0.9]),
        takes=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_draws_equal_per_call_draws(self, ns, shift, takes):
        args = (300, 1.05, shift, 11)
        sampler = ZipfSampler(*args)
        for n, use_take, want in zip(ns, takes, per_call_draws(args, ns)):
            if use_take:
                assert sampler.take(n) == want.tolist()
            else:
                got = sampler.sample(n)
                assert got.dtype == want.dtype and got.shape == (n,)
                assert (got == want).all()

    def test_zero_and_over_a_block(self):
        args = (500, 1.05, 0.5, 3)
        ns = [0, 3, 0, 10_000, 1, 4096, 4095, 0, 9000]
        sampler = ZipfSampler(*args)
        for n, want in zip(ns, per_call_draws(args, ns)):
            assert (sampler.sample(n) == want).all()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(100).sample(-1)


def assert_same_view(got: ParagraphTerms, want: ParagraphTerms):
    gv, wv = got.views, want.views
    for name in ("starts", "lengths", "stem_ids", "order", "sorted_ids"):
        assert getattr(gv, name).tolist() == getattr(wv, name).tolist(), name
    assert gv.vocab.table() == wv.vocab.table()
    assert got.stems_at == want.stems_at
    assert got.positions == want.positions
    ids = gv.stem_ids.tolist()
    resolved = [(tid, None, True) for tid in dict.fromkeys(ids)]
    resolved += [(a, (a, b), True) for a, b in zip(ids, ids[1:])]
    resolved.append((len(gv.vocab), None, False))
    assert got.keyword_positions(resolved) == want.keyword_positions(resolved)
    # A fresh vocabulary numbers the ids by first occurrence.
    assert list(dict.fromkeys(ids)) == list(range(len(gv.vocab)))


class TestParagraphTerms:
    @pytest.mark.parametrize("text", PARAGRAPHS)
    def test_hand_built(self, text):
        assert_same_view(
            ParagraphTerms.from_text(text), paragraph_terms_by_token(text)
        )

    @given(texts)
    @settings(max_examples=200, deadline=None)
    def test_matches_token_by_token(self, text):
        assert_same_view(
            ParagraphTerms.from_text(text), paragraph_terms_by_token(text)
        )

    def test_case_variants_share_one_id(self):
        terms = ParagraphTerms.from_text("Run run RUN The the THE")
        assert terms.views.stem_ids.tolist() == [0, 0, 0, 1, 1, 1]
        assert terms.stems_at == ("run",) * 3 + ("the",) * 3


def collection_of(doc_texts, cid=0):
    return SubCollection(
        cid,
        [Document(doc_id=10 + i, collection_id=cid, title="", text=text)
         for i, text in enumerate(doc_texts)],
    )


def assert_same_buffers(got, want):
    for name in _BUFFER_FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert (g.typecode, g.tobytes()) == (w.typecode, w.tobytes()), name


def assert_same_build(collection):
    """The bulk build and the token-by-token build, into fresh
    vocabularies and stem caches: same buffers, term table and stem-cache
    entries, with fewer stem-cache lookups on the bulk side."""
    bulk_stems, ref_stems = StemCache(), StemCache()
    bulk_vocab, ref_vocab = Vocabulary(), Vocabulary()
    got = CollectionIndex(collection, stemmer=bulk_stems, vocabulary=bulk_vocab)
    assert_same_buffers(
        got.buffers, build_buffers_by_token(collection, ref_stems, ref_vocab)
    )
    assert bulk_vocab.table() == ref_vocab.table()
    assert dict(bulk_stems._cache) == dict(ref_stems._cache)
    assert bulk_stems.misses == ref_stems.misses
    assert bulk_stems.hits <= ref_stems.hits


class TestCollectionBuild:
    def test_hand_built(self):
        assert_same_build(collection_of([
            "\n\n".join(PARAGRAPHS),
            "The run.\n\n\n\nRUN the 12% -- $5.\n\n  \n\nRunning the runs.",
            "",
            "x-ray x-ray x-ray. X-Ray don't DON'T",
        ]))

    @given(st.lists(
        st.lists(texts, min_size=1, max_size=4).map("\n\n".join), max_size=5
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_token_by_token(self, doc_texts):
        assert_same_build(collection_of(doc_texts))

    def test_generated_collections(self):
        corpus = generate_corpus(CorpusConfig(
            n_collections=2, docs_per_collection=30, vocab_size=800, seed=17
        ))
        for collection in corpus.collections:
            assert_same_build(collection)

    def test_one_stem_lookup_per_surface_form(self):
        stems = StemCache()
        collection = collection_of(["Run run RUN.\n\nrun Run.", "RUN the run"])
        CollectionIndex(collection, stemmer=stems, vocabulary=Vocabulary())
        assert stems.hits + stems.misses == len({"Run", "run", "RUN", "the"})

    def test_whole_corpus_through_one_surface_form_table(self):
        """All collections of one build share one table: the buffers are
        the token-by-token build's, collection by collection into one
        vocabulary, and each distinct word form is looked up in the stem
        cache once per build, not once per collection."""
        corpus = generate_corpus(CorpusConfig(
            n_collections=3, docs_per_collection=20, vocab_size=600, seed=23
        ))
        bulk_stems, ref_stems = StemCache(), StemCache()
        bulk_vocab, ref_vocab = Vocabulary(), Vocabulary()
        built = build_indexes(corpus.collections, bulk_stems, bulk_vocab)
        for index, collection in zip(built, corpus.collections, strict=True):
            assert index._stem is bulk_stems and index.vocab is bulk_vocab
            assert_same_buffers(
                index.buffers,
                build_buffers_by_token(collection, ref_stems, ref_vocab),
            )
        assert bulk_vocab.table() == ref_vocab.table()
        assert dict(bulk_stems._cache) == dict(ref_stems._cache)
        assert bulk_stems.misses == ref_stems.misses
        forms = [word_forms(c.documents) for c in corpus.collections]
        assert bulk_stems.hits + bulk_stems.misses == len(set().union(*forms))
        assert len(set().union(*forms)) < sum(map(len, forms))  # lookups saved


def word_forms(documents):
    """The distinct surface forms of the word tokens of ``documents``."""
    return {
        form
        for doc in documents
        for form in split_tokens(doc.text)[0]
        if form[0].isalpha()
    }
