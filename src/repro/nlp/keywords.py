"""Keyword selection for document retrieval.

The second goal of question processing "is to select the keywords for
document retrieval" (Section 2.1).  Following the LASSO/Falcon heuristics,
keywords are ranked so that the Boolean retrieval engine can *relax* the
query (drop the lowest-priority keyword) when a conjunction of all
keywords retrieves nothing:

1. named entities and quoted phrases (highest priority — they must match),
2. other capitalized proper names,
3. remaining content words (non-stopword nouns/verbs/adjectives),
   longer/rarer words first.

Each keyword carries its Porter stem, which is what the inverted index
stores.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from .entities import EntityRecognizer, EntityType
from .stemming import cached_stem as stem
from .stopwords import is_stopword
from .tokenizer import Token, is_capitalized, tokenize

__all__ = ["Keyword", "select_keywords"]

_QUESTION_WORDS = frozenset(
    "who whom whose what which where when why how name whats".split()
)


@dataclass(frozen=True, slots=True)
class Keyword:
    """A retrieval keyword.

    ``stems`` has one entry per word for phrase keywords; the retrieval
    engine requires all of them to co-occur in a paragraph.
    """

    text: str
    stems: tuple[str, ...]
    priority: int  # lower = more important, dropped last during relaxation
    is_phrase: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


def select_keywords(
    question: str,
    recognizer: EntityRecognizer | None = None,
    max_keywords: int = 8,
    tokens: t.Sequence[Token] | None = None,
) -> list[Keyword]:
    """Extract ranked retrieval keywords from a question.

    Parameters
    ----------
    question:
        Natural-language question text.
    recognizer:
        Entity recognizer used to detect phrase keywords; optional.
    max_keywords:
        Hard cap — Falcon keeps the strongest handful of keywords and lets
        relaxation handle recall.
    tokens:
        The question's tokenization, when the caller already has it.
    """
    if tokens is None:
        tokens = tokenize(question)
    keywords: list[Keyword] = []
    consumed: set[int] = set()

    # 1. Named-entity phrases.
    if recognizer is not None:
        for ent in recognizer.recognize(question, tokens):
            if ent.type in (EntityType.NUMBER, EntityType.PERCENT):
                continue  # bare numbers in questions are rarely good keys
            words = [
                tokens[k].text
                for k in range(ent.token_start, ent.token_end)
                if tokens[k].is_word or tokens[k].text[0].isdigit()
            ]
            words = [w for w in words if not is_stopword(w)]
            if not words:
                continue
            keywords.append(
                Keyword(
                    text=" ".join(words),
                    stems=tuple(stem(w) for w in words),
                    priority=0,
                    is_phrase=len(words) > 1,
                )
            )
            consumed.update(range(ent.token_start, ent.token_end))

    # 2. Other capitalized proper names (skip the sentence-initial word
    #    when it is an interrogative).
    for i, tok in enumerate(tokens):
        if i in consumed or not tok.is_word:
            continue
        if tok.lower in _QUESTION_WORDS or is_stopword(tok.text):
            continue
        if is_capitalized(tok) and i > 0:
            keywords.append(
                Keyword(text=tok.text, stems=(stem(tok.text),), priority=1)
            )
            consumed.add(i)

    # 3. Remaining content words, longer words first (a crude rarity proxy
    #    that matches Zipfian vocabularies well).
    content = [
        (i, tok)
        for i, tok in enumerate(tokens)
        if i not in consumed
        and tok.is_word
        and tok.lower not in _QUESTION_WORDS
        and not is_stopword(tok.text)
    ]
    content.sort(key=lambda pair: (-len(pair[1].text), pair[0]))
    for rank, (i, tok) in enumerate(content):
        keywords.append(
            Keyword(text=tok.text, stems=(stem(tok.text),), priority=2 + rank)
        )

    # De-duplicate by stem tuple, keeping the best priority.
    seen: dict[tuple[str, ...], Keyword] = {}
    for kw in keywords:
        old = seen.get(kw.stems)
        if old is None or kw.priority < old.priority:
            seen[kw.stems] = kw
    unique = sorted(seen.values(), key=lambda k: k.priority)
    return unique[:max_keywords]
