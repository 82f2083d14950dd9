"""Question classification: expected-answer-type detection.

"The main role of the Question Processing module is to identify the answer
type expected (i.e. LOCATION, PERSON, etc.)" — Section 2.1.  Falcon used a
semantic taxonomy over WordNet; our substitute is a transparent rule
cascade over the question's leading words plus a head-noun lexicon, which
covers the factual TREC-8/9 question styles the paper exercises (Table 1).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from .entities import EntityType
from .stopwords import is_stopword
from .tokenizer import Token, tokenize

__all__ = ["classify_question", "QuestionClassification", "HEAD_NOUN_TYPES"]


#: Head nouns that determine the answer type of "what/which <noun> ..."
#: questions, e.g. "What city hosted the games?" -> LOCATION.
HEAD_NOUN_TYPES: dict[str, EntityType] = {
    # locations
    "city": EntityType.LOCATION,
    "cities": EntityType.LOCATION,
    "country": EntityType.LOCATION,
    "countries": EntityType.LOCATION,
    "state": EntityType.LOCATION,
    "continent": EntityType.LOCATION,
    "river": EntityType.LOCATION,
    "mountain": EntityType.LOCATION,
    "capital": EntityType.LOCATION,
    "place": EntityType.LOCATION,
    "island": EntityType.LOCATION,
    # people
    "person": EntityType.PERSON,
    "man": EntityType.PERSON,
    "woman": EntityType.PERSON,
    "president": EntityType.PERSON,
    "actor": EntityType.PERSON,
    "actress": EntityType.PERSON,
    "author": EntityType.PERSON,
    "writer": EntityType.PERSON,
    "scientist": EntityType.PERSON,
    "inventor": EntityType.PERSON,
    "leader": EntityType.PERSON,
    "king": EntityType.PERSON,
    "queen": EntityType.PERSON,
    "explorer": EntityType.PERSON,
    "composer": EntityType.PERSON,
    "painter": EntityType.PERSON,
    # organizations
    "company": EntityType.ORGANIZATION,
    "organization": EntityType.ORGANIZATION,
    "university": EntityType.ORGANIZATION,
    "agency": EntityType.ORGANIZATION,
    "team": EntityType.ORGANIZATION,
    # dates / times
    "year": EntityType.DATE,
    "date": EntityType.DATE,
    "day": EntityType.DATE,
    "month": EntityType.DATE,
    # quantities
    "population": EntityType.NUMBER,
    "height": EntityType.DISTANCE,
    "length": EntityType.DISTANCE,
    "distance": EntityType.DISTANCE,
    "cost": EntityType.MONEY,
    "price": EntityType.MONEY,
    # domain classes from Table 1
    "disease": EntityType.DISEASE,
    "illness": EntityType.DISEASE,
    "syndrome": EntityType.DISEASE,
    "nationality": EntityType.NATIONALITY,
    "product": EntityType.PRODUCT,
    "invention": EntityType.PRODUCT,
}


@dataclass(frozen=True, slots=True)
class QuestionClassification:
    """Outcome of answer-type detection."""

    answer_type: EntityType
    #: The rule that fired — useful for tests and error analysis.
    rule: str


def classify_question(
    question: str, tokens: t.Sequence[Token] | None = None
) -> QuestionClassification:
    """Detect the expected answer type of a natural-language question
    (``tokens``: its tokenization, when the caller already has it)."""
    if tokens is None:
        tokens = tokenize(question)
    words = [tok.lower for tok in tokens if tok.is_word]
    if not words:
        return QuestionClassification(EntityType.UNKNOWN, "empty")

    joined = " ".join(words)
    first = words[0]

    # -- leading interrogative rules (most specific first) -----------------
    if first in ("who", "whom", "whose"):
        return QuestionClassification(EntityType.PERSON, "who")
    if first == "where" or " where " in f" {joined} ":
        return QuestionClassification(EntityType.LOCATION, "where")
    if first == "when":
        return QuestionClassification(EntityType.DATE, "when")
    if joined.startswith("how many"):
        return QuestionClassification(EntityType.NUMBER, "how-many")
    if joined.startswith("how much"):
        if any(w in words for w in ("cost", "pay", "worth", "price")):
            return QuestionClassification(EntityType.MONEY, "how-much-money")
        return QuestionClassification(EntityType.NUMBER, "how-much")
    if joined.startswith(("how far", "how tall", "how high", "how deep", "how long is")):
        return QuestionClassification(EntityType.DISTANCE, "how-far")
    if joined.startswith("how long"):
        return QuestionClassification(EntityType.DURATION, "how-long")
    if joined.startswith("how old"):
        return QuestionClassification(EntityType.NUMBER, "how-old")

    # -- "what/which (is the) <head noun>" rules -------------------------------
    if first in ("what", "which", "name"):
        for w in words[1:6]:
            if w in HEAD_NOUN_TYPES:
                return QuestionClassification(HEAD_NOUN_TYPES[w], f"head:{w}")
        # "What is the name of the ... disease ..." — scan the whole question
        # for a typed head noun before giving up.
        for w in words[6:]:
            if w in HEAD_NOUN_TYPES:
                return QuestionClassification(HEAD_NOUN_TYPES[w], f"head-late:{w}")
        # Bare "What is X?" -> definition question.
        if len(words) >= 2 and words[1] in ("is", "are", "was", "were"):
            content = [w for w in words[2:] if not is_stopword(w)]
            if content:
                return QuestionClassification(EntityType.DEFINITION, "what-is")
        return QuestionClassification(EntityType.UNKNOWN, "what-unknown")

    # -- fallback: head noun anywhere -------------------------------------------
    for w in words:
        if w in HEAD_NOUN_TYPES:
            return QuestionClassification(HEAD_NOUN_TYPES[w], f"fallback:{w}")
    return QuestionClassification(EntityType.UNKNOWN, "fallback")
