"""Lexico-semantic entity model and recognizer.

The paper's answer-processing module identifies *candidate answers* as
"lexico-semantic entities with the same type as the question answer type"
(Section 2.1).  Falcon used a trained named-entity recognizer; our
substitute combines:

* a **gazetteer** — phrase -> type lookup populated from the synthetic
  corpus' knowledge base (the corpus generator and the recognizer share
  the same entity inventory, mirroring how Falcon's NER vocabulary covered
  the TREC collection), and
* **surface patterns** — dates, years, money, percentages, plain numbers,
  honorific-marked person names, and unknown capitalized sequences.

This keeps the *data flow* of the real system (text in, typed spans out)
with a cost profile dominated by scanning, like the original.
"""

from __future__ import annotations

import enum
import typing as t
from dataclasses import dataclass

from .stopwords import STOPWORDS
from .tokenizer import Token, is_capitalized_text, is_number_text, tokenize

__all__ = [
    "EntityType",
    "Entity",
    "Gazetteer",
    "EntityRecognizer",
    "Span",
    "matching_types",
]


class EntityType(enum.Enum):
    """Answer-entity taxonomy (superset of the paper's examples).

    Table 1 of the paper shows DISEASE, LOCATION and NATIONALITY answers;
    the TREC-8/9 question sets behind it also require the other classes.
    """

    PERSON = "PERSON"
    LOCATION = "LOCATION"
    ORGANIZATION = "ORGANIZATION"
    DATE = "DATE"
    MONEY = "MONEY"
    NUMBER = "NUMBER"
    PERCENT = "PERCENT"
    NATIONALITY = "NATIONALITY"
    DISEASE = "DISEASE"
    DISTANCE = "DISTANCE"
    DURATION = "DURATION"
    PRODUCT = "PRODUCT"
    DEFINITION = "DEFINITION"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True, slots=True)
class Entity:
    """A typed text span."""

    text: str
    type: EntityType
    start: int
    end: int
    token_start: int
    token_end: int

    @classmethod
    def from_tokens(
        cls,
        text: str,
        tokens: t.Sequence[Token],
        i: int,
        j: int,
        etype: EntityType,
    ) -> "Entity":
        """The entity of ``etype`` covering ``tokens[i:j]`` of ``text``."""
        start = tokens[i].start
        end = tokens[j - 1].end
        return cls(
            text=text[start:end],
            type=etype,
            start=start,
            end=end,
            token_start=i,
            token_end=j,
        )


#: A recognized span before any text is cut: ``(token_start, token_end,
#: type)`` — everything about an entity that depends on the tokens alone.
Span = tuple[int, int, EntityType]

_PROPER_NAME_TYPES = frozenset(
    (EntityType.PERSON, EntityType.LOCATION, EntityType.ORGANIZATION)
)


def matching_types(etype: EntityType) -> frozenset[EntityType]:
    """Entity types that qualify as candidates of type ``etype``.

    UNKNOWN capitalized sequences also qualify for PERSON / LOCATION /
    ORGANIZATION (Falcon treats out-of-vocabulary proper names as weak
    candidates).
    """
    if etype in _PROPER_NAME_TYPES:
        return frozenset((etype, EntityType.UNKNOWN))
    return frozenset((etype,))


_MONTHS = frozenset(
    "january february march april may june july august september october"
    " november december".split()
)

_DISTANCE_UNITS = frozenset(
    "mile miles kilometer kilometers km meter meters feet foot yards".split()
)

_DURATION_UNITS = frozenset(
    "second seconds minute minutes hour hours day days week weeks month"
    " months year years decade decades century centuries".split()
)

# Common nationality adjectives; the corpus knowledge base extends this.
_NATIONALITIES = frozenset(
    "american british french german italian spanish polish russian chinese"
    " japanese indian mexican canadian australian brazilian egyptian greek"
    " turkish dutch swedish norwegian danish irish scottish portuguese"
    " austrian swiss belgian korean vietnamese thai argentine chilean".split()
)

_HONORIFICS = frozenset(
    "mr mrs ms dr prof president senator general sir lady lord pope".split()
)


def _looks_like_year(text: str) -> bool:
    return len(text) == 4 and text.isdigit() and text[0] in "12"


class Gazetteer:
    """Longest-match phrase dictionary mapping surface forms to types."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, ...], EntityType] = {}
        self._max_len = 1
        #: First-word index so the scanner can skip non-starting tokens.
        self._starts: set[str] = set()

    def add(self, phrase: str, etype: EntityType) -> None:
        """Register ``phrase`` (case-insensitive) as an entity of ``etype``."""
        words = tuple(w.lower() for w in phrase.split())
        if not words:
            raise ValueError("empty gazetteer phrase")
        self._entries[words] = etype
        self._max_len = max(self._max_len, len(words))
        self._starts.add(words[0])

    def lookup(self, words: t.Sequence[str]) -> EntityType | None:
        return self._entries.get(tuple(w.lower() for w in words))

    def longest_match(
        self, lowered: t.Sequence[str], i: int
    ) -> tuple[int, EntityType] | None:
        """Longest phrase starting at ``lowered[i]``: ``(end, type)``.

        ``lowered`` is a whole token sequence already lower-cased, so the
        scanner lower-cases each token once however many phrase lengths
        and start positions try it.
        """
        if lowered[i] not in self._starts:
            return None
        entries = self._entries
        for j in range(min(len(lowered), i + self._max_len), i, -1):
            etype = entries.get(tuple(lowered[i:j]))
            if etype is not None:
                return j, etype
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, phrase: str) -> bool:
        return tuple(phrase.lower().split()) in self._entries


class EntityRecognizer:
    """Gazetteer + pattern entity recognizer.

    Parameters
    ----------
    gazetteer:
        Phrase dictionary (typically built by the corpus knowledge base).
    extra_nationalities:
        Additional nationality adjectives recognized beyond the built-ins.
    """

    def __init__(
        self,
        gazetteer: Gazetteer | None = None,
        extra_nationalities: t.Iterable[str] = (),
    ) -> None:
        self.gazetteer = gazetteer or Gazetteer()
        self._nationalities = _NATIONALITIES | {
            n.lower() for n in extra_nationalities
        }

    # -- public API -----------------------------------------------------------
    def spans(self, texts: t.Sequence[str]) -> list[Span]:
        """All entity spans over a token sequence's surface forms
        (longest-match, left to right).

        Recognition reads the surface forms alone — no offsets, and no
        question — which is what lets AP run it once per paragraph,
        straight off the index's packed token layer, and keep the result.
        """
        lowered = [text.lower() for text in texts]
        spans: list[Span] = []
        i = 0
        n = len(texts)
        while i < n:
            hit = self._match_at(texts, lowered, i)
            if hit is not None:
                spans.append((i, hit[0], hit[1]))
                i = hit[0]
            else:
                i += 1
        return spans

    def recognize(self, text: str, tokens: t.Sequence[Token] | None = None) -> list[Entity]:
        """Find all entities in ``text`` (longest-match, left to right)."""
        if tokens is None:
            tokens = tokenize(text)
        return [
            Entity.from_tokens(text, tokens, i, j, etype)
            for i, j, etype in self.spans([tok.text for tok in tokens])
        ]

    # -- matching internals -------------------------------------------------------
    def _match_at(
        self, texts: t.Sequence[str], lowered: t.Sequence[str], i: int
    ) -> tuple[int, EntityType] | None:
        """The entity starting at token ``i``, as ``(token_end, type)``.

        Runs once per token of every paragraph's first visit, so it looks
        at each token once: ``lowered`` carries the lower-cased forms and
        the first character decides word vs. number before any pattern
        is tried (a word cannot be numeric; a non-word cannot be a month,
        an honorific or capitalized).
        """
        # 1. Gazetteer longest match.
        hit = self.gazetteer.longest_match(lowered, i)
        if hit is not None:
            return hit

        # 2. Nationality adjectives.
        low = lowered[i]
        if low in self._nationalities:
            return i + 1, EntityType.NATIONALITY

        text = texts[i]
        first = text[0]
        n = len(texts)
        if not first.isalpha():
            # Only a numeric token can still start an entity.
            if not is_number_text(text):
                return None
            # 3a. Dates: a bare year.
            if _looks_like_year(text):
                return i + 1, EntityType.DATE
            # 4. Money / percent / quantity+unit / plain numbers.
            if text.startswith("$"):
                j = i + 1
                if j < n and lowered[j] in ("million", "billion"):
                    j += 1
                return j, EntityType.MONEY
            if text.endswith("%"):
                return i + 1, EntityType.PERCENT
            if i + 1 < n:
                nxt = lowered[i + 1]
                if nxt in _DISTANCE_UNITS:
                    return i + 2, EntityType.DISTANCE
                if nxt in _DURATION_UNITS:
                    return i + 2, EntityType.DURATION
                if nxt == "percent":
                    return i + 2, EntityType.PERCENT
            return i + 1, EntityType.NUMBER

        # 3b. Dates: "<month> <num>(, <year>)" | "<month> <year>".
        if low in _MONTHS:
            j = i + 1
            if j < n and is_number_text(texts[j]):
                j += 1
                if (
                    j + 1 < n
                    and texts[j] == ","
                    and is_number_text(texts[j + 1])
                ):
                    j += 2
            return j, EntityType.DATE

        # 5. Honorific-marked person names: "Dr. Jane Doe" (the tokenizer
        # splits the period off the honorific, so skip over it).
        if low in _HONORIFICS and i + 1 < n:
            j = i + 1
            if texts[j] == ".":
                j += 1
            name_start = j
            while j < n and is_capitalized_text(texts[j]):
                j += 1
            if j > name_start:
                return j, EntityType.PERSON

        # 6. Unknown capitalized run.  A capitalized common word right
        # after start/period is not a name.
        if first.isupper() and not (
            low in STOPWORDS and (i == 0 or texts[i - 1] in ".!?")
        ):
            j = i + 1
            while j < n and is_capitalized_text(texts[j]):
                j += 1
            return j, EntityType.UNKNOWN

        return None
