"""The reference implementations the equivalence tests compare against.

src has one path per question stage: PS and AP read every paragraph
through a packed :class:`~repro.retrieval.inverted_index.ParagraphTerms`
and its bisect kernel, and PR ANDs per-stem bitsets.  The
simpler paths they replaced live here, used by tests only:

* :func:`keyword_positions` re-tokenizes and re-stems a paragraph's text
  and scans it linearly for each keyword;
* :class:`TextTerms` is a term view with the interface PS and AP read,
  built the same way, with no packed arrays and no bisect;
* :func:`retrieve_sets` is PR's relaxation loop over per-stem Python
  sets, the one the bitset loop replaced (:func:`retrieve_pr_sets` runs
  it for a whole question);
* :func:`window_score` is AP's seven-heuristic window score, the general
  loop over every keyword occurrence, with the apposition read off the
  neighbouring token texts.

:func:`reference_pipeline` wires all three into a :class:`QAPipeline`,
the whole-pipeline oracle.

The indexer's token-by-token build lives here too:
:func:`append_paragraph_by_token` makes a :class:`Token` per token and
stems, interns and classifies each one as it comes, and
:func:`build_buffers_by_token` counts terms and gathers postings one
token at a time; :func:`paragraph_terms_by_token` is
``ParagraphTerms.from_text`` over the former.
"""

from __future__ import annotations

import types
import typing as t
from array import array
from collections import Counter, defaultdict

from repro.nlp.stemming import SHARED_STEM_CACHE, StemCache
from repro.nlp.stemming import cached_stem as stem
from repro.nlp.stopwords import is_stopword
from repro.nlp.tokenizer import tokenize
from repro.nlp.vocabulary import Vocabulary
from repro.nlp.keywords import Keyword
from repro.qa import CollectionWork, PRResult, QAPipeline
from repro.qa.answer_processing import _W, _WINDOW_RADIUS
from repro.retrieval import Paragraph, RetrievalResult, split_paragraphs
from repro.retrieval.inverted_index import IndexBuffers, ParagraphTerms, _TermViews


def keyword_positions(
    text: str, keyword_stems: t.Sequence[tuple[str, ...]]
) -> tuple[list[list[int]], list[str]]:
    """Token positions of each keyword in ``text`` (reference path).

    Returns ``(positions, stems_at)`` where ``positions[k]`` lists token
    indices where keyword ``k`` (matched by its first stem — phrase
    keywords match on their head word with the rest verified in-order) and
    ``stems_at`` is the stemmed token sequence.
    """
    tokens = tokenize(text)
    stems_at = [
        stem(tok.text) if tok.is_word else tok.text for tok in tokens
    ]
    positions: list[list[int]] = [[] for _ in keyword_stems]
    for k, kstems in enumerate(keyword_stems):
        head = kstems[0]
        for i, s in enumerate(stems_at):
            if s != head:
                continue
            if len(kstems) > 1:
                # Verify the remaining stems follow in order.
                if i + len(kstems) > len(stems_at):
                    continue
                if tuple(stems_at[i : i + len(kstems)]) != tuple(kstems):
                    continue
            positions[k].append(i)
    return positions, stems_at


class TextTerms:
    """Reference term view of one paragraph: tokenize + Porter, a
    vocabulary of the paragraph's own stems, and a linear scan per
    keyword."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        stems_at = [
            stem(tok.text) if tok.is_word else tok.text for tok in self.tokens
        ]
        self.vocab = Vocabulary(stems_at)
        self.ids = [self.vocab.lookup(s) for s in stems_at]

    @property
    def views(self) -> TextTerms:
        """What AP keys its entity layer by: this view alone."""
        return self

    @property
    def offset(self) -> int:
        return 0

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    def token_text(self, i: int) -> str:
        return self.tokens[i].text

    def token_texts(self) -> list[str]:
        return [tok.text for tok in self.tokens]

    def char_span(self, i: int, j: int) -> tuple[int, int]:
        return self.tokens[i].start, self.tokens[j - 1].end

    def keyword_positions(
        self, resolved: t.Sequence[tuple[int, t.Any, bool]]
    ) -> list[list[int]]:
        """Every token position where a keyword's ids start, in order."""
        ids, out = self.ids, []
        for head, kids, ok in resolved:
            want = [head] if kids is None else list(kids)
            out.append(
                [
                    i
                    for i in range(len(ids))
                    if ok and ids[i : i + len(want)] == want
                ]
            )
        return out


def text_terms(paragraph: Paragraph) -> TextTerms:
    """A ``term_lookup`` that re-tokenizes the paragraph on every call."""
    return TextTerms(paragraph.text)


def window_score(
    c_lo: int,
    c_end: int,
    texts: t.Sequence[str],
    positions: t.Sequence[t.Sequence[int]],
    coverage: float,
    paragraph_rank: float,
) -> float:
    """The window score of the candidate at tokens ``[c_lo, c_end)`` of a
    paragraph whose token texts are ``texts`` (reference path; 0.0 when
    no keyword occurrence of ``positions`` falls in the window).

    ``coverage`` and ``paragraph_rank`` arrive weighted; the other five
    heuristics are computed here, in the order AP adds them.
    """
    c_hi = c_end - 1
    w_lo = max(0, c_lo - _WINDOW_RADIUS)
    w_hi = min(len(texts) - 1, c_hi + _WINDOW_RADIUS)
    distances: list[int] = []
    sequence = 0
    prev_in = False
    for pos_list in positions:
        in_reach = [
            min(abs(p - c_lo), abs(p - c_hi)) for p in pos_list if w_lo <= p <= w_hi
        ]
        if in_reach:
            if min(in_reach) <= 2 and prev_in:
                sequence += 1
            distances.append(min(in_reach))
        prev_in = bool(in_reach)
    if not distances:
        return 0.0
    apposition = 0.0
    if c_lo > 0 and texts[c_lo - 1] in (",", "(", "-"):
        apposition += 1.0
    if c_hi + 1 < len(texts) and texts[c_hi + 1] in (",", ")", "-"):
        apposition += 1.0
    return (
        _W["sequence"] * sequence
        + _W["keywords_in_window"] * len(distances)
        + _W["nearest_distance"] / (1.0 + min(distances))
        + _W["total_distance"] / (1.0 + sum(distances) / len(distances))
        + _W["apposition"] * apposition
        + coverage
        + paragraph_rank
    )


def retrieve_sets(retriever, keywords: t.Sequence[Keyword]) -> RetrievalResult:
    """PR's relaxation loop on ``retriever``'s collection, over per-stem
    Python sets looked up by stem text.

    A round's docs are the intersection of its stems' posting sets,
    smallest first, charging every stem's postings up to the first empty
    one; a keyword's paragraphs are the intersection of its stems'
    paragraph-posting sets, and the quorum is a :class:`Counter` over
    them, kept to the matched documents.
    """
    index = retriever.index
    result = RetrievalResult(index.collection_id, [], [], [])
    active = sorted(keywords, key=lambda k: k.priority)
    m = len(active)
    if not m:
        return result
    while True:
        sets: list[set[int]] = []
        for s in (s for kw in active[:m] for s in kw.stems):
            postings = index.sorted_postings(s)
            result.postings_scanned += len(postings)
            if not len(postings):
                sets = []
                break
            sets.append(set(postings))
        docs = set.intersection(*sorted(sets, key=len)) if sets else set()
        result.relaxation_rounds += 1
        if len(docs) >= retriever.min_docs or m == 1:
            break
        m -= 1
    result.used_keywords = active[:m]
    result.matched_docs = sorted(docs)
    if not docs:
        return result
    result.doc_bytes_read = sum(index.doc_bytes(d) for d in result.matched_docs)
    needed = max(1, int(round(retriever.paragraph_quorum * m)))
    counts: Counter[int] = Counter()
    for kw in active[:m]:
        counts.update(
            set.intersection(*(set(index.paragraph_postings(s)) for s in kw.stems))
        )
    paragraphs = index.paragraphs
    result.paragraphs = [
        paragraphs[o]
        for o in sorted(counts)
        if counts[o] >= needed and paragraphs[o].doc_id in docs
    ]
    return result


def retrieve_pr_sets(pr, processed, collection_ids=None) -> PRResult:
    """``ParagraphRetriever.retrieve`` through :func:`retrieve_sets`, one
    collection at a time."""
    if collection_ids is None:
        collection_ids = range(pr.n_collections)
    result = PRResult(paragraphs=[])
    for cid in collection_ids:
        r = retrieve_sets(pr.indexed.retrievers[cid], processed.keywords)
        result.paragraphs += r.paragraphs
        result.per_collection.append(
            CollectionWork(
                cid,
                len(r.paragraphs),
                r.postings_scanned,
                r.doc_bytes_read,
                r.relaxation_rounds,
            )
        )
    return result


def reference_pipeline(indexed, recognizer) -> QAPipeline:
    """The whole-pipeline oracle over ``indexed``'s indexes: per-stem set
    intersection in PR, and every paragraph re-tokenized and
    re-recognized in PS and AP."""
    pipeline = QAPipeline(indexed.reconfigured(), recognizer)
    pipeline.pr.retrieve = types.MethodType(retrieve_pr_sets, pipeline.pr)
    pipeline.ps.term_lookup = pipeline.ap.term_lookup = text_terms
    return pipeline


def _new_buffers() -> IndexBuffers:
    """Empty buffers, ready to be appended to."""
    return IndexBuffers(
        t_offsets=array("I", (0,)), starts=array("I"), lengths=array("H"),
        stem_ids=array("i"), order=array("H"), sorted_ids=array("i"),
        p_terms=array("i"), p_offsets=array("I", (0,)), p_docs=array("I"),
        p_tfs=array("I"), pp_offsets=array("I", (0,)), pp_ords=array("I"),
    )


def append_paragraph_by_token(
    buffers: IndexBuffers,
    text: str,
    stem_fn: StemCache,
    intern: t.Callable[[str], int],
) -> list[int]:
    """Tokenize, stem and intern one paragraph onto ``buffers``, one
    token at a time; the ids of its indexed tokens, in token order."""
    ids: list[int] = []
    indexed: list[int] = []
    starts, lengths = buffers.starts, buffers.lengths
    for tok in tokenize(text):
        word = tok.text
        tid = intern(stem_fn(word) if tok.is_word else word)
        ids.append(tid)
        starts.append(tok.start)
        lengths.append(tok.end - tok.start)
        if (tok.is_word or word[0].isdigit()) and not is_stopword(word):
            indexed.append(tid)
    buffers.stem_ids.extend(ids)
    loc = sorted(range(len(ids)), key=ids.__getitem__)
    buffers.order.extend(loc)
    buffers.sorted_ids.extend(ids[j] for j in loc)
    buffers.t_offsets.append(len(buffers.stem_ids))
    return indexed


def paragraph_terms_by_token(text: str) -> ParagraphTerms:
    """``ParagraphTerms.from_text`` built by :func:`append_paragraph_by_token`."""
    buffers, vocab = _new_buffers(), Vocabulary()
    append_paragraph_by_token(buffers, text, SHARED_STEM_CACHE, vocab.intern)
    return ParagraphTerms(text, 0, buffers.t_offsets[1], _TermViews(buffers, vocab))


def build_buffers_by_token(
    collection, stem_fn: StemCache, vocab: Vocabulary
) -> IndexBuffers:
    """One sub-collection's buffers, term counts and postings gathered one
    token at a time, slots in first-occurrence order."""
    buffers = _new_buffers()
    postings: dict[int, tuple[list[int], list[int]]] = {}
    para_postings: defaultdict[int, list[int]] = defaultdict(list)
    ordinal = 0
    for doc in collection.documents:
        doc_counts: dict[int, int] = {}
        for para in split_paragraphs(doc.doc_id, collection.collection_id, doc.text):
            indexed = append_paragraph_by_token(
                buffers, para.text, stem_fn, vocab.intern
            )
            for tid in indexed:
                doc_counts[tid] = doc_counts.get(tid, 0) + 1
            for tid in set(indexed):
                para_postings[tid].append(ordinal)
            ordinal += 1
        for tid, tf in doc_counts.items():
            slot = postings.setdefault(tid, ([], []))
            slot[0].append(doc.doc_id)
            slot[1].append(tf)
    for tid, (docs, tfs) in postings.items():
        buffers.p_terms.append(tid)
        buffers.p_docs.extend(docs)
        buffers.p_tfs.extend(tfs)
        buffers.p_offsets.append(len(buffers.p_docs))
        buffers.pp_ords.extend(para_postings[tid])
        buffers.pp_offsets.append(len(buffers.pp_ords))
    return buffers
