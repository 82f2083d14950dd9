"""QP — question processing module.

Identifies the expected answer type and selects retrieval keywords
(Section 2.1).  Non-iterative and cheap (1.1–1.2 % of task time, Table 2),
so the distributed design never partitions it.
"""

from __future__ import annotations

from ..nlp.answer_types import classify_question
from ..nlp.entities import EntityRecognizer
from ..nlp.keywords import select_keywords
from ..nlp.tokenizer import tokenize
from .question import ProcessedQuestion, Question

__all__ = ["QuestionProcessor"]


class QuestionProcessor:
    """The QP module."""

    def __init__(self, recognizer: EntityRecognizer, max_keywords: int = 8) -> None:
        self.recognizer = recognizer
        self.max_keywords = max_keywords

    def process(self, question: Question) -> ProcessedQuestion:
        """Classify the question and extract ranked keywords, off one
        tokenization of its text."""
        tokens = tokenize(question.text)
        classification = classify_question(question.text, tokens)
        keywords = select_keywords(
            question.text,
            self.recognizer,
            max_keywords=self.max_keywords,
            tokens=tokens,
        )
        return ProcessedQuestion(
            question=question,
            answer_type=classification.answer_type,
            keywords=tuple(keywords),
        )
