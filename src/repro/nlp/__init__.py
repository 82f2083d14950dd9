"""Light NLP substrate: tokenization, stemming, entities, question analysis.

Functional replacements for the Falcon NLP stack, with the same data flow
(question -> answer type + keywords; text -> typed entity spans) and a
comparable cost profile.  See DESIGN.md §2 for the substitution rationale.
"""

from .answer_types import HEAD_NOUN_TYPES, QuestionClassification, classify_question
from .entities import Entity, EntityRecognizer, EntityType, Gazetteer
from .keywords import Keyword, select_keywords
from .porter import stem
from .stemming import SHARED_STEM_CACHE, StemCache, cached_stem
from .stopwords import STOPWORDS, is_stopword
from .tokenizer import Token, is_capitalized, sentences, tokenize
from .vocabulary import MISSING_ID, SHARED_VOCABULARY, Vocabulary

__all__ = [
    "Entity",
    "EntityRecognizer",
    "EntityType",
    "Gazetteer",
    "HEAD_NOUN_TYPES",
    "Keyword",
    "MISSING_ID",
    "QuestionClassification",
    "SHARED_STEM_CACHE",
    "SHARED_VOCABULARY",
    "STOPWORDS",
    "StemCache",
    "Token",
    "Vocabulary",
    "cached_stem",
    "classify_question",
    "is_capitalized",
    "is_stopword",
    "select_keywords",
    "sentences",
    "stem",
    "tokenize",
]
