"""PS — paragraph scoring module.

Assigns each retrieved paragraph a rank "using three surface-text
heuristics [that] estimate the relevance of each paragraph based on the
number of keywords present in the paragraph and the inter-keyword
distance" (Section 2.1, citing the LASSO heuristics [27]):

1. **same-word-sequence score** — how many adjacent keyword pairs of the
   question appear in the same order, adjacent, in the paragraph;
2. **distance score** — how tightly the matched keywords cluster (the span
   of the densest window covering them);
3. **missing-keyword score** — how many query keywords the paragraph
   contains at all.

PS is iterative at paragraph granularity (Table 2) and cheap (~2 % of task
time), but it is partitioned together with PR in the distributed design
(Fig 3 places PS replicas behind each PR replica).

When constructed with a ``term_lookup`` (the indexed corpus'
:meth:`~repro.retrieval.collection.IndexedCorpus.term_lookup`), keyword
positions come from the index's packed
:class:`~repro.retrieval.inverted_index.ParagraphTerms` — a vocabulary-id
binary search per keyword — instead of re-tokenizing and re-stemming the
paragraph text for every question.  Both paths produce byte-identical
scores (enforced by tests/qa/test_scoring_equivalence.py).
"""

from __future__ import annotations

import typing as t
from array import array

from ..nlp.stemming import cached_stem as stem
from ..nlp.tokenizer import tokenize
from ..retrieval.inverted_index import ParagraphTerms
from ..retrieval.paragraphs import Paragraph
from .question import ProcessedQuestion, ScoredParagraph

__all__ = [
    "KeywordIdResolver",
    "ParagraphScorer",
    "TermLookup",
    "keyword_positions",
    "keyword_positions_from_ids",
]

#: Resolver from a paragraph to its precomputed term view (None = absent).
TermLookup = t.Callable[[Paragraph], t.Optional[ParagraphTerms]]

# Heuristic combination weights (same spirit as LASSO's empirical weights).
_W_SEQUENCE = 20.0
_W_DISTANCE = 10.0
_W_PRESENT = 50.0


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


class KeywordIdResolver:
    """Per-question memo of keyword-stem → vocabulary-id resolution.

    One question scores hundreds of paragraphs against the same handful
    of keywords, so the stem → id lookups happen once per (vocabulary,
    question) pair — one entry in practice, since all collections share
    the interned vocabulary — and every paragraph after that runs only
    :func:`keyword_positions_from_ids`' packed-array binary searches.
    The pipeline builds one per question and shares it between PS and AP.
    """

    __slots__ = ("kstems", "_by_vocab")

    def __init__(self, kstems: t.Sequence[tuple[str, ...]]) -> None:
        self.kstems = [tuple(ks) for ks in kstems]
        # id(vocab) -> (vocab, precomputed); the vocab reference keeps the
        # id stable for the resolver's lifetime.
        self._by_vocab: dict[int, tuple[t.Any, list[tuple[int, t.Any, bool]]]] = {}

    def resolve(self, vocab: t.Any) -> list[tuple[int, t.Any, bool]]:
        """``(head_id, phrase_ids, resolvable)`` per keyword for ``vocab``."""
        entry = self._by_vocab.get(id(vocab))
        if entry is not None:
            return entry[1]
        lookup = vocab.lookup
        pre: list[tuple[int, t.Any, bool]] = []
        for ks in self.kstems:
            head = lookup(ks[0])
            if head < 0:
                pre.append((head, None, False))
            elif len(ks) == 1:
                pre.append((head, None, True))
            else:
                kids = array("i", (lookup(s) for s in ks))
                pre.append((head, kids, min(kids) >= 0))
        self._by_vocab[id(vocab)] = (vocab, pre)
        return pre


def keyword_positions_from_ids(
    terms: ParagraphTerms, resolved: t.Sequence[tuple[int, t.Any, bool]]
) -> list[list[int]]:
    """Token positions of each keyword via the packed term layer.

    ``resolved`` comes from :meth:`KeywordIdResolver.resolve` on the
    paragraph's vocabulary.  Head-stem occurrences are a binary search
    over the paragraph's id-sorted position run; phrase keywords verify
    their remaining stem ids in order at each candidate position (an
    ``array`` slice compare, no string materialization).  Produces exactly
    the positions :func:`keyword_positions` derives from raw text: a stem
    the vocabulary has never interned cannot occur in any paragraph, so
    it matches nowhere on either path.
    """
    n = terms.n_tokens
    positions: list[list[int]] = []
    for head, kids, ok in resolved:
        if not ok:
            positions.append([])
            continue
        candidates = terms.positions_of_id(head)
        if kids is None:
            positions.append(list(candidates))
            continue
        klen = len(kids)
        positions.append(
            [
                i
                for i in candidates
                if i + klen <= n and terms.ids_at(i, klen) == kids
            ]
        )
    return positions


class ParagraphScorer:
    """The PS module.

    Parameters
    ----------
    term_lookup:
        Optional resolver returning the precomputed term view of a
        paragraph.  Paragraphs it cannot resolve (``None``) fall back to
        the re-tokenize reference path, so scorers work on paragraphs
        from outside the indexed corpus too.
    """

    def __init__(self, term_lookup: TermLookup | None = None) -> None:
        self.term_lookup = term_lookup

    def score(
        self,
        processed: ProcessedQuestion,
        paragraphs: t.Sequence[Paragraph],
        resolver: KeywordIdResolver | None = None,
    ) -> list[ScoredParagraph]:
        """Score every paragraph independently (embarrassingly parallel).

        ``resolver`` is the question's keyword-id memo (the pipeline
        shares one between PS and AP); one is built when none is passed.
        """
        kstems = [kw.stems for kw in processed.keywords]
        resolver = resolver or KeywordIdResolver(kstems)
        return [self.score_one(p, kstems, resolver) for p in paragraphs]

    def score_one(
        self,
        paragraph: Paragraph,
        kstems: t.Sequence[tuple[str, ...]],
        resolver: KeywordIdResolver | None = None,
    ) -> ScoredParagraph:
        """Score one paragraph; a match made on the term layer rides on
        the result for AP (:attr:`ScoredParagraph.match`)."""
        terms = self.term_lookup(paragraph) if self.term_lookup else None
        if terms is not None:
            resolver = resolver or KeywordIdResolver(kstems)
            positions = keyword_positions_from_ids(
                terms, resolver.resolve(terms.vocab)
            )
            match = (terms, positions)
        else:
            positions, _ = keyword_positions(paragraph.text, kstems)
            match = None
        score, n_present = self._score_positions(kstems, positions)
        return ScoredParagraph(paragraph, score, n_present, match)

    @staticmethod
    def _score_positions(
        kstems: t.Sequence[tuple[str, ...]], positions: list[list[int]]
    ) -> tuple[float, int]:
        """The three LASSO heuristics over already-matched positions:
        ``(score, keywords present)``."""
        present = [k for k, pos in enumerate(positions) if pos]
        n_present = len(present)
        if n_present == 0:
            return 0.0, 0

        # Heuristic 1: same-word-sequence — adjacent keyword pairs of the
        # question appearing adjacently (within one token) in the paragraph.
        seq = 0
        for k in range(len(kstems) - 1):
            if not positions[k] or not positions[k + 1]:
                continue
            firsts = set(positions[k])
            if any(p - len(kstems[k]) in firsts or p - 1 in firsts
                   for p in positions[k + 1]):
                seq += 1

        # Heuristic 2: distance — span of the tightest window containing
        # one occurrence of each present keyword (greedy approximation:
        # anchor at each occurrence of the rarest keyword).
        rarest = min(present, key=lambda k: len(positions[k]))
        best_span = None
        for anchor in positions[rarest]:
            lo = hi = anchor
            for k in present:
                if k == rarest:
                    continue
                nearest = min(positions[k], key=lambda p: abs(p - anchor))
                lo = min(lo, nearest)
                hi = max(hi, nearest)
            span = hi - lo + 1
            if best_span is None or span < best_span:
                best_span = span
        distance_score = 1.0 / (1.0 + (best_span or 1) / max(1, n_present))

        score = (
            _W_PRESENT * n_present
            + _W_SEQUENCE * seq
            + _W_DISTANCE * distance_score
        )
        return score, n_present
