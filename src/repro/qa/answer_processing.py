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
from weakref import WeakKeyDictionary

from ..nlp.entities import Entity, EntityRecognizer, EntityType, matching_types
from ..nlp.porter import stem
from ..retrieval.inverted_index import ParagraphTerms
from ..retrieval.paragraphs import Paragraph
from .paragraph_scoring import KeywordIdResolver, TermLookup, terms_from_text
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

#: The first two heuristics of a window holding one keyword occurrence:
#: nothing before it to sequence, one keyword in the window.  The next
#: three weights, for the same window scored inline.
_ONE_IN_WINDOW = _W["sequence"] * 0 + _W["keywords_in_window"] * 1
_W_NEAREST = _W["nearest_distance"]
_W_TOTAL = _W["total_distance"]
_W_APPOSITION = _W["apposition"]

#: Neighbour tokens that mark an apposition before / after a candidate.
_OPENERS = (",", "(", "-")
_CLOSERS = (",", ")", "-")

# Entity-layer packing: a paragraph's spans are one flat ``array("I")`` of
# (type code, token start, token end, char start, char end, apposition
# count) sextuples.  Char offsets are paragraph-local, but a view built
# from a text can hold more than 64 KiB of it.
_SPAN = 6
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
    alone, or was already done by PS, so :meth:`extract` is one loop over
    three per-paragraph inputs:

    * the paragraph's **term view** (:class:`ParagraphTerms`, from the
      index through the indexed corpus'
      :meth:`~repro.retrieval.collection.IndexedCorpus.term_lookup`, or
      built from the text by the default ``term_lookup``), whose packed
      arrays the entity layer is built from;
    * AP's own **entity layer** keeps, per paragraph, what a window needs
      of each recognized span: its type code, token start and end,
      character start and end, and apposition count (0–2: a ``,`` ``(``
      or ``-`` token just before it, a ``,`` ``)`` or ``-`` just after).
      The first question to visit a paragraph runs the recognizer over it
      once; every later question reads the kept spans, skips the types it
      did not ask for and scores each remaining window from these numbers
      alone;
    * **PS's carried match** (:attr:`ScoredParagraph.match`) is the term
      view and keyword positions PS computed a moment earlier.  A scored
      paragraph that arrives without one (built by hand) is matched here,
      through ``term_lookup`` and the same :class:`KeywordIdResolver`.

    A window is scored only if a keyword occurrence can fall in it: one
    whose candidate sits more than ``_WINDOW_RADIUS`` tokens before the
    paragraph's first occurrence or after its last is skipped, and a
    paragraph whose keywords occur once in all — most windows sit in one —
    scores its windows off that one position inline, in
    :meth:`_score_window`'s operand order.  Text is touched only for
    windows that hold a keyword: the candidate is sliced, filtered
    against the question's own words, and kept as a plain tuple while it
    is the best of its text; clips and :class:`Answer` objects exist for
    the final ``n_answers`` alone.  The filter reads a second table the
    processor keeps, from lower-cased candidate text to the stems of its
    words, filled on first sight with the pure Porter function — not the
    shared stem cache, so a question's stem-cache traffic stays QP's and
    a function of the question alone.
    What each step saves is measured in EXPERIMENTS.md, under "Paragraph
    entity layer", "AP by the ledger", "PS and AP by the occurrence" and
    "AP by the span".

    The entity layer is built lazily, owned by this object — spans depend
    on the recognizer's gazetteer, so they cannot live on the shared
    index — and keyed weakly by the term view's shared buffers
    (:attr:`ParagraphTerms.views`), then by the paragraph's token offset
    in them, so two paragraphs that share a key but not a text keep
    their own spans.  An index keeps one set of buffers per collection
    for its lifetime, so the layer is bounded by the corpus' paragraph
    count and fills once, while a view built from text has buffers of its
    own and leaves the layer when its question lets go of it.
    """

    def __init__(
        self,
        recognizer: EntityRecognizer,
        n_answers: int = 5,
        term_lookup: TermLookup = terms_from_text,
    ) -> None:
        if n_answers < 1:
            raise ValueError("n_answers must be >= 1")
        self.recognizer = recognizer
        self.n_answers = n_answers
        self.term_lookup = term_lookup
        #: term buffers -> {token offset of a paragraph in them: its spans}
        self._entity_layer: WeakKeyDictionary[t.Any, dict[int, array]] = (
            WeakKeyDictionary()
        )
        #: lower-cased candidate text -> stems of its words
        self._own_words: dict[str, frozenset[str]] = {}
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
        own_words = self._own_words
        #: lower-cased answer text -> (score, paragraph, text, type code,
        #: char start, char end) of its best window so far.
        best: dict[str, tuple[float, Paragraph, str, int, int, int]] = {}
        views = spans_at = None
        hits = 0
        for sp in accepted:
            paragraph = sp.paragraph
            if sp.match is not None:
                terms, kw_positions = sp.match
                present = sp.keywords_present
            else:
                terms = self.term_lookup(paragraph)
                resolver = resolver or KeywordIdResolver(kstems)
                kw_positions = terms.keyword_positions(
                    resolver.resolve(terms.vocab)
                )
                present = sum(1 for p in kw_positions if p)
            if terms.views is not views:
                views = terms.views
                spans_at = self._spans_at(views)
            spans = spans_at.get(terms.offset)
            if spans is None:
                spans = self._recognize(terms, spans_at)
            else:
                hits += 1
            # The paragraph's first and last keyword occurrence (each
            # keyword's positions ascend) and how many there are.
            first, last, n_hits = -1, -1, 0
            for pos in kw_positions:
                if pos:
                    n_hits += len(pos)
                    if first < 0 or pos[0] < first:
                        first = pos[0]
                    if pos[-1] > last:
                        last = pos[-1]
            if not n_hits:
                continue
            # The window of candidate [i, j) reaches _WINDOW_RADIUS tokens
            # either side of it, so it holds a keyword occurrence only if
            # i <= last + R and j - 1 >= first - R; any other window scores
            # 0.0 and is skipped unscored.  With one occurrence in all,
            # that test is the whole window test.
            i_max = last + _WINDOW_RADIUS
            j_min = first - _WINDOW_RADIUS
            coverage = _W["coverage"] * present / n_keywords
            rank = _W["paragraph_rank"] * sp.score / max_rank
            for k in range(0, len(spans), _SPAN):
                if spans[k] not in wanted:
                    continue
                i, j = spans[k + 1], spans[k + 2]
                if i > i_max or j <= j_min:
                    continue
                if n_hits == 1:
                    # The distance from the one occurrence to the nearer
                    # end of the candidate; nearest and mean are both it.
                    if first < i:
                        d = i - first
                    elif first >= j:
                        d = first - j + 1
                    else:
                        d = min(first - i, j - 1 - first)
                    score = (
                        _ONE_IN_WINDOW
                        + _W_NEAREST / (1.0 + d)
                        + _W_TOTAL / (1.0 + d)
                        + _W_APPOSITION * spans[k + 5]
                        + coverage
                        + rank
                    )
                else:
                    score = self._score_window(
                        i, j, terms.n_tokens, kw_positions, spans[k + 5],
                        coverage, rank,
                    )
                    if score <= 0.0:
                        continue
                start, end = spans[k + 3], spans[k + 4]
                text = paragraph.text[start:end]
                key = text.lower()
                # merge_answers' rule: only a strictly greater score
                # replaces, so the first window seen wins a tie.
                old = best.get(key)
                if old is None:
                    words = own_words.get(key)
                    if words is None:
                        words = own_words[key] = _stems_of(key)
                    if words and words <= question_stems:
                        continue  # the question's own words cannot answer it
                elif score <= old[0]:
                    continue
                best[key] = (score, paragraph, text, spans[k], start, end)

        self._layer_hits += hits
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
        terms = self.term_lookup(paragraph)
        spans_at = self._spans_at(terms.views)
        spans = spans_at.get(terms.offset)
        if spans is None:
            spans = self._recognize(terms, spans_at)
        else:
            self._layer_hits += 1
        wanted = _WANTED_CODES[processed.answer_type]
        question_stems = {s for kw in processed.keywords for s in kw.stems}
        own_words = self._own_words
        text = paragraph.text
        out = []
        for k in range(0, len(spans), _SPAN):
            if spans[k] in wanted:
                start, end = spans[k + 3], spans[k + 4]
                found = text[start:end]
                key = found.lower()
                words = own_words.get(key)
                if words is None:
                    words = own_words[key] = _stems_of(key)
                if not (words and words <= question_stems):
                    out.append(
                        Entity(
                            found, _TYPES[spans[k]], start, end,
                            spans[k + 1], spans[k + 2],
                        )
                    )
        return out

    @property
    def entity_layer_stats(self) -> dict[str, int]:
        """Cumulative entity-layer visits (hits reused kept spans, misses
        ran the recognizer) and the paragraphs it now holds."""
        return {
            "hits": self._layer_hits,
            "misses": self._layer_misses,
            "paragraphs": sum(map(len, self._entity_layer.values())),
        }

    # -- internals ---------------------------------------------------------------
    def _spans_at(self, views: t.Any) -> dict[int, array]:
        """The entity layer's spans of the paragraphs whose term views
        are windows into ``views``, by token offset."""
        spans_at = self._entity_layer.get(views)
        if spans_at is None:
            spans_at = self._entity_layer[views] = {}
        return spans_at

    def _recognize(
        self, terms: ParagraphTerms, spans_at: dict[int, array]
    ) -> array:
        """A paragraph's first visit: run the recognizer over its term view
        ``terms`` and keep the packed spans in ``spans_at``, the
        :meth:`_spans_at` of its views."""
        self._layer_misses += 1
        texts = terms.token_texts()
        n_tokens = len(texts)
        packed = array("I")
        for i, j, etype in self.recognizer.spans(texts):
            start, end = terms.char_span(i, j)
            apposition = (i > 0 and texts[i - 1] in _OPENERS) + (
                j < n_tokens and texts[j] in _CLOSERS
            )
            packed.extend((_TYPE_CODE[etype], i, j, start, end, apposition))
        spans_at[terms.offset] = packed
        return packed

    @staticmethod
    def _score_window(
        c_lo: int,
        c_end: int,
        n_tokens: int,
        kw_positions: t.Sequence[t.Sequence[int]],
        apposition: int,
        coverage: float,
        paragraph_rank: float,
    ) -> float:
        """Combine the seven heuristics for the window of the candidate
        at tokens ``[c_lo, c_end)`` of a paragraph of ``n_tokens``; 0.0
        when no keyword falls in it.

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

        The last three are the same for every question and arrive from
        the entity layer (``apposition``, a count of 0–2) or weighted.
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
        return (
            _W["sequence"] * sequence
            + _W["keywords_in_window"] * in_window
            + _W["nearest_distance"] / (1.0 + nearest)
            + _W["total_distance"] / (1.0 + mean_d)
            + _W["apposition"] * apposition
            + coverage
            + paragraph_rank
        )


def _stems_of(text: str) -> frozenset[str]:
    """The stems of a lower-cased candidate text's words."""
    return frozenset(stem(w) for w in text.split() if w and w[0].isalpha())


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
