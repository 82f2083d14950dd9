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
from ..nlp.tokenizer import Token, tokenize
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

    With a ``term_lookup`` (the indexed corpus'
    :meth:`~repro.retrieval.collection.IndexedCorpus.term_lookup`) AP runs
    on two per-paragraph layers, because everything it does before it
    scores a window depends on the paragraph alone:

    * the index's **term layer** (:class:`ParagraphTerms`) supplies
      surface forms, character offsets and keyword positions straight
      from its packed arrays — no tokenize + Porter-stem pass per
      question, and no token objects;
    * AP's own **entity layer** keeps the recognizer's spans.  The first
      question to visit a paragraph runs the recognizer over it once;
      every later question filters the kept spans by its answer type and
      builds :class:`Entity` objects only for the survivors.

    The entity layer is the larger saving by far.  On the benchmark's
    447-question stream (15 384 paragraph visits over 4 578 distinct
    paragraphs, of 10 585 in the corpus) AP was 4.9 ms of a 5.7 ms
    question, 3.2 ms of it re-recognizing paragraphs an earlier question
    had already scanned and 1.0 ms building token objects; with the
    layers it is 1.1-1.2 ms while they fill and 0.7 ms once they have
    (EXPERIMENTS.md, "Paragraph entity layer").

    The layer is built lazily, owned by this object — spans depend on the
    recognizer's gazetteer, so they cannot live on the shared index — and
    keyed by ``paragraph.key``.  It never evicts: it is bounded by the
    corpus' paragraph count, and a paragraph's spans are one flat
    ``array("H")`` of (type code, token start, token end).  Paragraphs the
    index cannot resolve (and every paragraph when ``term_lookup`` is
    ``None``) take the re-tokenize, re-recognize reference path.
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

        Returns the local best ``n_answers`` in descending score order.
        ``resolver`` is the question's keyword-id memo, as in
        :meth:`ParagraphScorer.score`; one is built when none is passed.
        """
        resolver = resolver or KeywordIdResolver(
            [kw.stems for kw in processed.keywords]
        )
        answers: list[Answer] = []
        max_rank = max((sp.score for sp in accepted), default=1.0) or 1.0
        for sp in accepted:
            answers.extend(
                self._process_paragraph(processed, sp, max_rank, resolver)
            )
        return merge_answers([answers], self.n_answers)

    def candidates(
        self, processed: ProcessedQuestion, paragraph: Paragraph
    ) -> list[Entity]:
        """Typed entities of ``paragraph`` matching the expected answer type.

        Candidates that merely repeat a question keyword are discarded —
        the question's own words cannot answer it.
        """
        terms = self.term_lookup(paragraph) if self.term_lookup else None
        tokens = None if terms is not None else tokenize(paragraph.text)
        return self._candidates(processed, paragraph, terms, tokens)

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
    def _process_paragraph(
        self,
        processed: ProcessedQuestion,
        sp: ScoredParagraph,
        max_rank: float,
        resolver: KeywordIdResolver,
    ) -> list[Answer]:
        text = sp.paragraph.text
        terms = self.term_lookup(sp.paragraph) if self.term_lookup else None
        tokens = None if terms is not None else tokenize(text)
        candidates = self._candidates(processed, sp.paragraph, terms, tokens)
        if not candidates:
            return []

        # Token positions of each keyword (stem match, phrases in order).
        kstems = [kw.stems for kw in processed.keywords]
        token_text: t.Callable[[int], str]
        if terms is not None:
            n_tokens = terms.n_tokens
            token_text = terms.token_text
            kw_positions = keyword_positions_from_ids(
                terms, resolver.resolve(terms.vocab)
            )
        else:
            n_tokens = len(tokens)
            token_text = [tok.text for tok in tokens].__getitem__
            kw_positions, _ = keyword_positions(text, kstems)
        n_keywords = len(kstems) or 1
        present_keywords = sum(1 for p in kw_positions if p)

        out: list[Answer] = []
        for cand in candidates:
            score = self._score_window(
                cand, n_tokens, token_text, kw_positions, present_keywords,
                n_keywords, sp.score, max_rank,
            )
            if score <= 0.0:
                continue
            out.append(
                Answer(
                    text=cand.text,
                    short=self._clip(text, cand, _SHORT_BYTES),
                    long=self._clip(text, cand, _LONG_BYTES),
                    score=score,
                    paragraph_key=sp.paragraph.key,
                    entity_type=cand.type,
                )
            )
        return out

    def _candidates(
        self,
        processed: ProcessedQuestion,
        paragraph: Paragraph,
        terms: ParagraphTerms | None,
        tokens: t.Sequence[Token] | None,
    ) -> list[Entity]:
        """:meth:`candidates` through the entity layer when the paragraph
        has ``terms``; otherwise the reference path, which runs the
        recognizer anew over ``tokens``."""
        atype = processed.answer_type
        if terms is not None:
            found = self._layered_entities(atype, paragraph, terms)
        elif atype in (EntityType.DEFINITION, EntityType.UNKNOWN):
            found = self.recognizer.recognize(paragraph.text, tokens)
        else:
            found = self.recognizer.recognize_typed(
                paragraph.text, atype, tokens
            )
        # The question's own words cannot answer it.
        question_stems = {
            s for kw in processed.keywords for s in kw.stems
        }
        out = []
        for c in found:
            cand_stems = {
                stem(w) for w in c.text.split() if w and w[0].isalpha()
            }
            if cand_stems and cand_stems <= question_stems:
                continue
            out.append(c)
        return out

    def _layered_entities(
        self, atype: EntityType, paragraph: Paragraph, terms: ParagraphTerms
    ) -> list[Entity]:
        """Entities of ``paragraph`` qualifying as ``atype``, through the
        entity layer: recognized on the first visit, filtered ever after.
        Nothing here builds a token object; offsets come off the term layer.
        """
        key = paragraph.key
        packed = self._entity_layer.get(key)
        if packed is None:
            self._layer_misses += 1
            packed = array("H")
            for i, j, etype in self.recognizer.spans(terms.token_texts()):
                packed.extend((_TYPE_CODE[etype], i, j))
            self._entity_layer[key] = packed
        else:
            self._layer_hits += 1
        wanted = _WANTED_CODES[atype]
        text = paragraph.text
        found = []
        for k in range(0, len(packed), 3):
            if packed[k] in wanted:
                i, j = packed[k + 1], packed[k + 2]
                start, end = terms.char_span(i, j)
                found.append(
                    Entity(text[start:end], _TYPES[packed[k]], start, end, i, j)
                )
        return found

    def _score_window(
        self,
        cand: Entity,
        n_tokens: int,
        token_text: t.Callable[[int], str],
        kw_positions: list[list[int]],
        present_keywords: int,
        n_keywords: int,
        paragraph_score: float,
        max_rank: float,
    ) -> float:
        """Combine the seven heuristics for one candidate's window.

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

        ``token_text(i)`` is the surface form of the paragraph's token
        ``i`` of ``n_tokens``.
        """
        c_lo = cand.token_start
        c_hi = cand.token_end - 1
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
            + _W["coverage"] * present_keywords / n_keywords
            + _W["paragraph_rank"] * paragraph_score / max_rank
        )

    @staticmethod
    def _clip(text: str, cand: Entity, nbytes: int) -> str:
        """A ~``nbytes`` window of text centred on the candidate."""
        margin = max(0, (nbytes - (cand.end - cand.start)) // 2)
        lo = max(0, cand.start - margin)
        hi = min(len(text), cand.end + margin)
        return text[lo:hi]


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
