"""PR's paragraph quorum filter on paragraph postings vs the probe loop.

The Boolean engine keeps the paragraphs of the matched documents that
hold at least a quorum of the active keywords.  It reads that off
paragraph postings (which paragraphs hold each stem).  The reference
below is the loop it replaced, kept verbatim in substance: every
paragraph of every matched document is probed by binary search in its
own sorted run of distinct indexed stem ids.  Here those runs are
re-derived from the paragraph text, so the reference shares no paragraph
structure with the index under test.  Both must return the same
paragraphs in the same order with the same work counters, for random
keyword lists (phrases, duplicate stems, stems no document holds),
quorums and relaxation floors, on every collection of the shared corpus.
"""

from __future__ import annotations

import typing as t
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.keywords import Keyword
from repro.nlp.stemming import cached_stem
from repro.nlp.stopwords import is_stopword
from repro.nlp.tokenizer import tokenize
from repro.retrieval.boolean import BooleanRetriever, RetrievalResult
from repro.retrieval.inverted_index import CollectionIndex

#: Stems the corpus vocabulary cannot hold.
_ABSENT = ("zzyzx", "qqqq-not-a-stem")


class _ProbeLayout:
    """The per-paragraph stem-id runs the probe loop read: paragraph
    ``p``'s sorted distinct indexed stem ids are ``ids[lo:hi]``."""

    def __init__(self, index: CollectionIndex) -> None:
        lookup = index.vocab.lookup
        self.ids = array("i")
        self.spans: dict[int, list[tuple[t.Any, int, int]]] = {}
        for para in index.paragraphs:
            indexed = {
                lookup(cached_stem(tok.text) if tok.is_word else tok.text)
                for tok in tokenize(para.text)
                if (tok.is_word or tok.text[0].isdigit())
                and not is_stopword(tok.text)
            }
            lo = len(self.ids)
            self.ids.extend(sorted(indexed))
            self.spans.setdefault(para.doc_id, []).append(
                (para, lo, len(self.ids))
            )


def _reference_retrieve(
    index: CollectionIndex,
    layout: _ProbeLayout,
    keywords: t.Sequence[Keyword],
    min_docs: int,
    quorum: float,
) -> RetrievalResult:
    """Relaxation over per-stem doc sets, then the per-paragraph probe."""
    result = RetrievalResult(index.collection_id, [], [], [])
    if not keywords:
        return result
    active = sorted(keywords, key=lambda k: k.priority)
    docs: set[int] = set()
    while active:
        docs = set()
        sets = []
        for s in (s for kw in active for s in kw.stems):
            postings = index.sorted_postings(s)
            result.postings_scanned += len(postings)
            if not len(postings):
                sets = []
                break
            sets.append(set(postings))
        if sets:
            docs = set.intersection(*sets)
        result.relaxation_rounds += 1
        if len(docs) >= min_docs or len(active) == 1:
            break
        active = active[:-1]
    result.used_keywords = list(active)
    result.matched_docs = sorted(docs)
    if not docs:
        return result

    lookup = index.vocab.lookup
    ids_per_kw = [tuple({lookup(s) for s in kw.stems}) for kw in active]
    pset = layout.ids
    needed = max(1, int(round(quorum * len(active))))
    for doc_id in result.matched_docs:
        result.doc_bytes_read += len(index.document(doc_id).text.encode("utf-8"))
        for para, lo, hi in layout.spans[doc_id]:
            present = 0
            for kw_ids in ids_per_kw:
                for tid in kw_ids:
                    j = bisect_left(pset, tid, lo, hi)
                    if j >= hi or pset[j] != tid:
                        break
                else:
                    present += 1
            if present >= needed:
                result.paragraphs.append(para)
    return result


def _keywords(stem_pool: st.SearchStrategy[str]) -> st.SearchStrategy[list[Keyword]]:
    keyword = st.builds(
        lambda stems, priority: Keyword(" ".join(stems), tuple(stems), priority),
        st.lists(stem_pool, min_size=1, max_size=3),
        st.integers(0, 3),
    )
    return st.lists(keyword, min_size=1, max_size=6)


@pytest.fixture(scope="module")
def layouts(shared_indexed_corpus):
    out = []
    for ix in shared_indexed_corpus.indexes:
        stems = [s for s, _ in ix.iter_terms()]
        # Frequent stems make multi-keyword conjunctions survive relaxation.
        frequent = sorted(stems, key=ix.document_frequency, reverse=True)[:25]
        out.append((ix, _ProbeLayout(ix), stems, frequent))
    return out


@pytest.mark.parametrize("cid", [0, 1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_postings_filter_equals_probe_loop(layouts, cid, data):
    index, layout, stems, frequent = layouts[cid]
    pool = st.one_of(
        st.sampled_from(frequent), st.sampled_from(stems), st.sampled_from(_ABSENT)
    )
    keywords = data.draw(_keywords(pool))
    quorum = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    min_docs = data.draw(st.integers(1, 6))

    got = BooleanRetriever(index, min_docs=min_docs, paragraph_quorum=quorum).retrieve(
        keywords
    )
    want = _reference_retrieve(index, layout, keywords, min_docs, quorum)
    assert [p.key for p in got.paragraphs] == [p.key for p in want.paragraphs]
    assert got.matched_docs == want.matched_docs
    assert got.used_keywords == want.used_keywords
    assert (got.postings_scanned, got.doc_bytes_read, got.relaxation_rounds) == (
        want.postings_scanned,
        want.doc_bytes_read,
        want.relaxation_rounds,
    )


def test_reference_layout_matches_the_paragraph_postings(layouts):
    """The probe layout and the postings describe the same incidence."""
    for index, layout, stems, _ in layouts:
        lookup = index.vocab.lookup
        by_ordinal = [
            set(layout.ids[lo:hi])
            for spans in layout.spans.values()
            for _, lo, hi in spans
        ]
        for s in stems:
            holders = [o for o, ids in enumerate(by_ordinal) if lookup(s) in ids]
            assert list(index.paragraph_postings(s)) == holders
