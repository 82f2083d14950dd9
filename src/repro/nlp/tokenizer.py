"""Offset-preserving tokenizer.

Falcon's downstream heuristics (paragraph scoring, answer-window
construction) reason about *token positions* and *byte offsets* — e.g. "the
answer is within 50 bytes of text" and "inter-keyword distance".  The
tokenizer therefore keeps, for each token, its character span in the source
text in addition to its surface form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Token",
    "tokenize",
    "sentences",
    "is_capitalized",
    "is_capitalized_text",
    "is_number_token",
    "is_number_text",
]

# Words (incl. internal apostrophes/hyphens), numbers (incl. decimals and
# thousands separators), and single punctuation marks.
_TOKEN_RE = re.compile(
    r"""
    \$?\d+(?:,\d{3})*(?:\.\d+)?%?  # numbers: $1,234.56  12%  1999
    | [A-Za-z]+(?:[''][A-Za-z]+)*  # words with internal apostrophes
    | [.,;:!?"()\[\]{}-]           # punctuation, one char at a time
    """,
    re.VERBOSE,
)

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z$\d\"'])")


@dataclass(frozen=True, slots=True)
class Token:
    """A token with its surface form and character span."""

    text: str
    start: int
    end: int

    @property
    def lower(self) -> str:
        return self.text.lower()

    @property
    def is_word(self) -> bool:
        return self.text[0].isalpha()

    @property
    def is_punct(self) -> bool:
        return not (self.text[0].isalnum() or self.text[0] == "$")

    def __len__(self) -> int:
        return self.end - self.start


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into :class:`Token` objects with character offsets."""
    return [
        Token(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)
    ]


def sentences(text: str) -> list[tuple[int, int]]:
    """Return (start, end) character spans of sentences in ``text``.

    A light heuristic splitter: sentence boundaries at ``.!?`` followed by
    whitespace and an upper-case/number/quote start.  Good enough for the
    synthetic corpus, whose generator emits well-formed sentences.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    for m in _SENTENCE_RE.finditer(text):
        spans.append((start, m.start()))
        start = m.end()
    tail = text[start:].strip()
    if tail:
        spans.append((start, len(text)))
    return spans


def is_capitalized_text(text: str) -> bool:
    """True for a word's surface form beginning with an upper-case letter."""
    return text[0].isalpha() and text[0].isupper()


def is_number_text(text: str) -> bool:
    """True for a numeric surface form (possibly with $, %, separators)."""
    stripped = text.lstrip("$").rstrip("%")
    return bool(stripped) and stripped[0].isdigit()


def is_capitalized(token: Token) -> bool:
    """True for word tokens beginning with an upper-case letter."""
    return is_capitalized_text(token.text)


def is_number_token(token: Token) -> bool:
    """True for numeric tokens (possibly with $, %, separators)."""
    return is_number_text(token.text)
