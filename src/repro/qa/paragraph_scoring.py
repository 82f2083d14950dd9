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

Keyword positions come from the paragraph's term view
(:class:`~repro.retrieval.inverted_index.ParagraphTerms`, one
vocabulary-id bisect per keyword in
:meth:`~repro.retrieval.inverted_index.ParagraphTerms.keyword_positions`),
which ``term_lookup`` supplies: the indexed corpus'
:meth:`~repro.retrieval.collection.IndexedCorpus.term_lookup` reads it
off the index, and the default builds it from the text.  The
re-tokenize path the scores are checked against lives in
tests/reference.py.
"""

from __future__ import annotations

import typing as t
from array import array
from bisect import bisect_left

from ..retrieval.inverted_index import ParagraphTerms
from ..retrieval.paragraphs import Paragraph
from .question import ProcessedQuestion, ScoredParagraph

__all__ = [
    "KeywordIdResolver",
    "ParagraphScorer",
    "TermLookup",
    "terms_from_text",
]

#: Resolver from a paragraph to its term view.
TermLookup = t.Callable[[Paragraph], ParagraphTerms]


def terms_from_text(paragraph: Paragraph) -> ParagraphTerms:
    """The default :data:`TermLookup`: a view built from the text, for
    paragraphs that come with no index."""
    return ParagraphTerms.from_text(paragraph.text)


# Heuristic combination weights (same spirit as LASSO's empirical weights).
_W_SEQUENCE = 20.0
_W_DISTANCE = 10.0
_W_PRESENT = 50.0

#: The score of a paragraph holding exactly one of the keywords: one
#: present, no adjacent pair, and a tightest window one token wide.  The
#: same operations as the general formula, so the same float (55.0).
_ONE_KEYWORD_SCORE = (
    _W_PRESENT * 1 + _W_SEQUENCE * 0 + _W_DISTANCE * (1.0 / (1.0 + 1 / 1))
)


class KeywordIdResolver:
    """Per-question memo of keyword-stem → vocabulary-id resolution.

    One question scores hundreds of paragraphs against the same handful
    of keywords, so the stem → id lookups happen once per (vocabulary,
    question) pair — one entry in practice, since all collections share
    the interned vocabulary — and every paragraph after that runs only
    :meth:`ParagraphTerms.keyword_positions`' packed-array bisects.
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


class ParagraphScorer:
    """The PS module.

    A paragraph costs what its keyword occurrences cost: one bisect per
    keyword on its term view finds them, and a paragraph holding one of
    the keywords — most of them, since PR's relaxation usually ends on a
    single keyword — scores the one-keyword constant without building a
    set or an anchor loop.  Two or more keywords present take the three
    heuristics in full.

    Parameters
    ----------
    term_lookup:
        Resolver of a paragraph's term view; the default builds one from
        the text, so a scorer works on any paragraph.
    """

    def __init__(self, term_lookup: TermLookup = terms_from_text) -> None:
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
        return self._score_all(paragraphs, kstems, resolver)

    def score_one(
        self,
        paragraph: Paragraph,
        kstems: t.Sequence[tuple[str, ...]],
        resolver: KeywordIdResolver | None = None,
    ) -> ScoredParagraph:
        """Score one paragraph (see :meth:`score`)."""
        return self._score_all([paragraph], kstems, resolver)[0]

    def _score_all(
        self,
        paragraphs: t.Sequence[Paragraph],
        kstems: t.Sequence[tuple[str, ...]],
        resolver: KeywordIdResolver | None,
    ) -> list[ScoredParagraph]:
        """Score paragraphs in order; each match rides on its result for
        AP (:attr:`ScoredParagraph.match`).

        Keyword ids are resolved once per run of paragraphs whose term
        views share a vocabulary — once per call over an index's views,
        once per paragraph over views built from text.
        """
        resolver = resolver or KeywordIdResolver(kstems)
        lookup = self.term_lookup
        score_positions = self._score_positions
        vocab = resolved = None
        out: list[ScoredParagraph] = []
        for paragraph in paragraphs:
            terms = lookup(paragraph)
            if terms.vocab is not vocab:
                vocab = terms.vocab
                resolved = resolver.resolve(vocab)
            positions = terms.keyword_positions(resolved)
            score, n_present = score_positions(kstems, positions)
            out.append(
                ScoredParagraph(paragraph, score, n_present, (terms, positions))
            )
        return out

    @staticmethod
    def _score_positions(
        kstems: t.Sequence[tuple[str, ...]], positions: list[list[int]]
    ) -> tuple[float, int]:
        """The three LASSO heuristics over already-matched positions:
        ``(score, keywords present)``."""
        n_present = len(positions) - positions.count([])  # empty: absent
        if n_present == 0:
            return 0.0, 0
        if n_present == 1:
            return _ONE_KEYWORD_SCORE, 1
        present = [k for k, pos in enumerate(positions) if pos]

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
        # Positions ascend, so the nearest occurrence to an anchor is one
        # of the two around its insertion point; on a tie the earlier one
        # wins.
        rarest = min(present, key=lambda k: len(positions[k]))
        others = [positions[k] for k in present if k != rarest]
        best_span = None
        for anchor in positions[rarest]:
            lo = hi = anchor
            for pos in others:
                j = bisect_left(pos, anchor)
                if j == len(pos) or (j and anchor - pos[j - 1] <= pos[j] - anchor):
                    j -= 1
                nearest = pos[j]
                if nearest < lo:
                    lo = nearest
                elif nearest > hi:
                    hi = nearest
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
