"""AP — answer processing module.

The CPU-bound bottleneck (Table 3: 100 % CPU; Table 2: up to 69.7 % of the
task).  Per Section 2.1:

* candidate answers are "lexico-semantic entities with the same type as
  the question answer type" found inside accepted paragraphs;
* around each candidate the system builds an *answer window* — "a text
  span that includes the candidate answer and one of each of the question
  keywords";
* each window is scored by "a combination of seven heuristics" using
  frequency and distance metrics like PS's, but requiring the candidate.

AP is iterative at paragraph granularity, and `extract` accepts any subset
of scored paragraphs — the unit the AP partitioners distribute.  Each AP
replica returns its local best ``n_answers``; the answer-sorting stage
merges local results into the global order (Fig 3).
"""

from __future__ import annotations

import typing as t
from array import array

from ..nlp.entities import Entity, EntityRecognizer, EntityType, matching_types
from ..nlp.stemming import cached_stem as stem
from ..nlp.tokenizer import tokenize
from ..retrieval.inverted_index import ParagraphTerms
from ..retrieval.paragraphs import Paragraph
from .paragraph_scoring import (
    KeywordIdResolver,
    TermLookup,
    keyword_positions,
    keyword_positions_from_ids,
)
from .question import Answer, ProcessedQuestion, ScoredParagraph

__all__ = ["AnswerProcessor", "merge_answers"]

# The seven answer-window heuristics' weights (empirical combination, in
# the spirit of Falcon's [27]).  Names follow the docstring below.
_W = {
    "sequence": 1.0,
    "keywords_in_window": 2.0,
    "nearest_distance": 1.5,
    "total_distance": 1.0,
    "apposition": 0.5,
    "coverage": 1.5,
    "paragraph_rank": 1.0,
}

_WINDOW_RADIUS = 12  # tokens either side of the candidate
_SHORT_BYTES = 50
_LONG_BYTES = 250

# Entity-layer packing: a paragraph's spans are one flat ``array("H")`` of
# (type code, token start, token end) triples — the width the index's own
# paragraph-local token positions use.
_TYPES = tuple(EntityType)
_TYPE_CODE = {etype: code for code, etype in enumerate(_TYPES)}
#: Type codes that qualify as candidates, per expected answer type.  For
#: DEFINITION/UNKNOWN questions any entity qualifies (Falcon falls back to
#: its full entity inventory there).
_WANTED_CODES = {
    atype: frozenset(
        _TYPE_CODE.values()
        if atype in (EntityType.DEFINITION, EntityType.UNKNOWN)
        else (_TYPE_CODE[etype] for etype in matching_types(atype))
    )
    for atype in EntityType
}


class AnswerProcessor:
    """The AP module.

    Everything AP does before it scores a window depends on the paragraph
    alone, or was already done by PS, so with a ``term_lookup`` (the
    indexed corpus'
    :meth:`~repro.retrieval.collection.IndexedCorpus.term_lookup`)
    :meth:`extract` is one loop over three per-paragraph inputs:

    * the index's **term layer** (:class:`ParagraphTerms`) supplies
      surface forms and character offsets straight from its packed
      arrays — no tokenize + Porter-stem pass per question, and no token
      objects;
    * AP's own **entity layer** keeps the recognizer's spans.  The first
      question to visit a paragraph runs the recognizer over it once;
      every later question walks the kept spans, skips the types it did
      not ask for and scores each remaining window from its two token
      indices;
    * **PS's carried match** (:attr:`ScoredParagraph.match`) is the term
      view and keyword positions PS computed a moment earlier.  A scored
      paragraph that arrives without one (built by hand, or scored from
      raw text) is matched here, with the same :class:`KeywordIdResolver`.

    Text is touched only for windows that hold a keyword: the candidate
    is sliced, filtered against the question's own words once per distinct
    text, and kept as a plain tuple while it is the best of its text;
    clips and :class:`Answer` objects exist for the final ``n_answers``
    alone.  What each step saves is measured in EXPERIMENTS.md ("Paragraph
    entity layer (PR 13)", "AP by the ledger (PR 24)").

    The entity layer is built lazily, owned by this object — spans depend
    on the recognizer's gazetteer, so they cannot live on the shared
    index — and keyed by ``paragraph.key``.  It never evicts: it is
    bounded by the corpus' paragraph count, and a paragraph's spans are
    one flat ``array("H")`` of (type code, token start, token end).
    Unmatched paragraphs the index cannot resolve (all of them when
    ``term_lookup`` is ``None``) take the re-tokenize, re-recognize
    reference path through the same loop.
    """

    def __init__(
        self,
        recognizer: EntityRecognizer,
        n_answers: int = 5,
        term_lookup: TermLookup | None = None,
    ) -> None:
        if n_answers < 1:
            raise ValueError("n_answers must be >= 1")
        self.recognizer = recognizer
        self.n_answers = n_answers
        self.term_lookup = term_lookup
        self._entity_layer: dict[tuple[int, int], array] = {}
        self._layer_hits = 0
        self._layer_misses = 0

    # -- public API --------------------------------------------------------------
    def extract(
        self,
        processed: ProcessedQuestion,
        accepted: t.Sequence[ScoredParagraph],
        resolver: KeywordIdResolver | None = None,
    ) -> list[Answer]:
        """Extract and rank answers from ``accepted`` paragraphs.

        Returns the local best ``n_answers`` in descending score order:
        what :func:`merge_answers` makes of every window that holds a
        keyword, without building an :class:`Answer` for each.

        ``resolver`` is the question's keyword-id memo, as in
        :meth:`ParagraphScorer.score`; it is needed (and built, when none
        is passed) only for paragraphs that arrive without PS's match.
        """
        kstems = [kw.stems for kw in processed.keywords]
        question_stems = {s for ks in kstems for s in ks}
        n_keywords = len(kstems) or 1
        wanted = _WANTED_CODES[processed.answer_type]
        max_rank = max((sp.score for sp in accepted), default=1.0) or 1.0
        #: lower-cased answer text -> (score, paragraph, text, type code,
        #: char start, char end) of its best window so far.
        best: dict[str, tuple[float, Paragraph, str, int, int, int]] = {}
        own_words: set[str] = set()  # lower-cased texts the filter dropped
        for sp in accepted:
            paragraph = sp.paragraph
            if sp.match is not None:
                terms, kw_positions = sp.match
                present = sp.keywords_present
            else:
                terms = self.term_lookup(paragraph) if self.term_lookup else None
                if terms is not None:
                    resolver = resolver or KeywordIdResolver(kstems)
                    kw_positions = keyword_positions_from_ids(
                        terms, resolver.resolve(terms.vocab)
                    )
                else:
                    kw_positions, _ = keyword_positions(paragraph.text, kstems)
                present = sum(1 for p in kw_positions if p)
            spans, n_tokens, token_text, char_span = self._view(paragraph, terms)
            coverage = _W["coverage"] * present / n_keywords
            rank = _W["paragraph_rank"] * sp.score / max_rank
            for k in range(0, len(spans), 3):
                if spans[k] not in wanted:
                    continue
                i, j = spans[k + 1], spans[k + 2]
                score = self._score_window(
                    i, j, n_tokens, token_text, kw_positions, coverage, rank
                )
                if score <= 0.0:
                    continue
                start, end = char_span(i, j)
                text = paragraph.text[start:end]
                key = text.lower()
                # merge_answers' rule: only a strictly greater score
                # replaces, so the first window seen wins a tie.
                old = best.get(key)
                if old is None:
                    if key in own_words:
                        continue
                    if _only_question_words(key, question_stems):
                        own_words.add(key)
                        continue
                elif score <= old[0]:
                    continue
                best[key] = (score, paragraph, text, spans[k], start, end)

        ranked = sorted(best.values(), key=lambda c: (-c[0], c[1].key, c[2]))
        return [
            Answer(
                text=text,
                short=_clip(paragraph.text, start, end, _SHORT_BYTES),
                long=_clip(paragraph.text, start, end, _LONG_BYTES),
                score=score,
                paragraph_key=paragraph.key,
                entity_type=_TYPES[code],
            )
            for score, paragraph, text, code, start, end in ranked[: self.n_answers]
        ]

    def candidates(
        self, processed: ProcessedQuestion, paragraph: Paragraph
    ) -> list[Entity]:
        """Typed entities of ``paragraph`` matching the expected answer type.

        Candidates that merely repeat a question keyword are discarded —
        the question's own words cannot answer it.
        """
        terms = self.term_lookup(paragraph) if self.term_lookup else None
        spans, _, _, char_span = self._view(paragraph, terms)
        wanted = _WANTED_CODES[processed.answer_type]
        question_stems = {s for kw in processed.keywords for s in kw.stems}
        text = paragraph.text
        out = []
        for k in range(0, len(spans), 3):
            if spans[k] in wanted:
                i, j = spans[k + 1], spans[k + 2]
                start, end = char_span(i, j)
                found = text[start:end]
                if not _only_question_words(found, question_stems):
                    out.append(Entity(found, _TYPES[spans[k]], start, end, i, j))
        return out

    @property
    def entity_layer_stats(self) -> dict[str, int]:
        """Cumulative entity-layer visits (hits reused kept spans, misses
        ran the recognizer) and the paragraphs it now holds."""
        return {
            "hits": self._layer_hits,
            "misses": self._layer_misses,
            "paragraphs": len(self._entity_layer),
        }

    # -- internals ---------------------------------------------------------------
    def _view(
        self, paragraph: Paragraph, terms: ParagraphTerms | None
    ) -> tuple[
        t.Sequence[int],
        int,
        t.Callable[[int], str],
        t.Callable[[int, int], tuple[int, int]],
    ]:
        """``(spans, n_tokens, token_text, char_span)`` of ``paragraph``.

        ``spans`` is the flat (type code, token start, token end)
        sequence of every recognized entity; ``token_text(i)`` the surface
        form of token ``i``; ``char_span(i, j)`` the characters tokens
        ``[i, j)`` cover.  With ``terms`` the spans come through the
        entity layer — recognized on the first visit, kept ever after —
        and the rest straight off the term layer, no token objects built;
        without, the reference path tokenizes and recognizes anew.
        """
        if terms is None:
            tokens = tokenize(paragraph.text)
            texts = [tok.text for tok in tokens]
            spans = [
                x
                for i, j, etype in self.recognizer.spans(texts)
                for x in (_TYPE_CODE[etype], i, j)
            ]
            return (
                spans,
                len(tokens),
                texts.__getitem__,
                lambda i, j: (tokens[i].start, tokens[j - 1].end),
            )
        packed = self._entity_layer.get(paragraph.key)
        if packed is None:
            self._layer_misses += 1
            packed = array("H")
            for i, j, etype in self.recognizer.spans(terms.token_texts()):
                packed.extend((_TYPE_CODE[etype], i, j))
            self._entity_layer[paragraph.key] = packed
        else:
            self._layer_hits += 1
        return packed, terms.n_tokens, terms.token_text, terms.char_span

    @staticmethod
    def _score_window(
        c_lo: int,
        c_end: int,
        n_tokens: int,
        token_text: t.Callable[[int], str],
        kw_positions: t.Sequence[t.Sequence[int]],
        coverage: float,
        paragraph_rank: float,
    ) -> float:
        """Combine the seven heuristics for the window of the candidate
        at tokens ``[c_lo, c_end)``; 0.0 when no keyword falls in it.

        1. *sequence*: keywords adjacent to the candidate in question
           order (frequency analogue of PS heuristic 1);
        2. *keywords_in_window*: how many keywords fall inside the window;
        3. *nearest_distance*: inverse distance to the closest keyword;
        4. *total_distance*: inverse mean distance to all in-window
           keywords;
        5. *apposition*: candidate flanked by a comma/parenthesis —
           appositions often restate the sought entity;
        6. *coverage*: fraction of all question keywords present in the
           paragraph;
        7. *paragraph_rank*: the PS rank, normalised — answers from better
           paragraphs win ties.

        The last two are the same for every window of a paragraph and
        arrive weighted; ``token_text(i)`` is the surface form of the
        paragraph's token ``i`` of ``n_tokens``.
        """
        c_hi = c_end - 1
        w_lo = max(0, c_lo - _WINDOW_RADIUS)
        w_hi = min(n_tokens - 1, c_hi + _WINDOW_RADIUS)

        in_window = 0
        distances: list[int] = []
        sequence = 0
        prev_in = False
        for pos_list in kw_positions:
            best = None
            for p in pos_list:
                if w_lo <= p <= w_hi:
                    d = min(abs(p - c_lo), abs(p - c_hi))
                    if best is None or d < best:
                        best = d
            if best is not None:
                in_window += 1
                distances.append(best)
                if best <= 2:
                    sequence += 1 if prev_in else 0
                prev_in = True
            else:
                prev_in = False
        if in_window == 0:
            return 0.0

        nearest = min(distances)
        mean_d = sum(distances) / len(distances)
        apposition = 0.0
        if c_lo > 0 and token_text(c_lo - 1) in (",", "(", "-"):
            apposition += 1.0
        if c_hi + 1 < n_tokens and token_text(c_hi + 1) in (",", ")", "-"):
            apposition += 1.0

        return (
            _W["sequence"] * sequence
            + _W["keywords_in_window"] * in_window
            + _W["nearest_distance"] / (1.0 + nearest)
            + _W["total_distance"] / (1.0 + mean_d)
            + _W["apposition"] * apposition
            + coverage
            + paragraph_rank
        )


def _only_question_words(text: str, question_stems: t.Collection[str]) -> bool:
    """True when every word of the candidate ``text`` is one of the
    question's own — such a candidate cannot answer it."""
    stems = {stem(w) for w in text.split() if w and w[0].isalpha()}
    return bool(stems) and stems <= question_stems


def _clip(text: str, start: int, end: int, nbytes: int) -> str:
    """A ~``nbytes`` window of ``text`` centred on ``[start, end)``."""
    margin = max(0, (nbytes - (end - start)) // 2)
    return text[max(0, start - margin) : min(len(text), end + margin)]


def merge_answers(
    groups: t.Sequence[t.Sequence[Answer]], n_answers: int
) -> list[Answer]:
    """Answer merging + sorting (Fig 3's final stages).

    Combines per-partition local answers, de-duplicates identical answer
    texts (keeping the best-scoring window) and returns the global top
    ``n_answers`` — the same output the sequential system would produce.
    """
    best: dict[str, Answer] = {}
    for group in groups:
        for ans in group:
            key = ans.text.lower()
            old = best.get(key)
            if old is None or ans.score > old.score:
                best[key] = ans
    ranked = sorted(
        best.values(), key=lambda a: (-a.score, a.paragraph_key, a.text)
    )
    return ranked[:n_answers]
