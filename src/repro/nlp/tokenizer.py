"""Offset-preserving tokenizer.

Falcon's downstream heuristics (paragraph scoring, answer-window
construction) reason about *token positions* and *byte offsets* — e.g. "the
answer is within 50 bytes of text" and "inter-keyword distance".  The
tokenizer therefore keeps, for each token, its character span in the source
text in addition to its surface form.

Two front ends share the one token pattern.  :func:`tokenize` makes a
:class:`Token` per token, for the per-question callers (QP, the entity
recognizer).  :func:`split_tokens` is the indexer's: building an index
touches every token of the corpus (574 k on the benchmark tier), so it
gets the same surface forms and spans as three plain lists from a
single ``re.split`` call, with no Python object or method call per
token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

__all__ = [
    "Token",
    "tokenize",
    "split_tokens",
    "sentences",
    "is_capitalized",
    "is_capitalized_text",
    "is_number_token",
    "is_number_text",
]

# Words (incl. internal apostrophes/hyphens), numbers (incl. decimals and
# thousands separators), and single punctuation marks.
_TOKEN_PATTERN = r"""
    \$?\d+(?:,\d{3})*(?:\.\d+)?%?  # numbers: $1,234.56  12%  1999
    | [A-Za-z]+(?:[''][A-Za-z]+)*  # words with internal apostrophes
    | [.,;:!?"()\[\]{}-]           # punctuation, one char at a time
    """
_TOKEN_RE = re.compile(_TOKEN_PATTERN, re.VERBOSE)
#: The same pattern as one capture group: ``split`` then alternates the
#: text between tokens with the tokens themselves (no match is empty).
_SPLIT_RE = re.compile(f"({_TOKEN_PATTERN})", re.VERBOSE)

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


def split_tokens(text: str) -> tuple[list[str], list[int], list[int]]:
    """The surface forms, character starts and lengths of ``text``'s
    tokens — :func:`tokenize` as three parallel lists.

    ``re.split`` on the capturing pattern returns ``[gap, token, gap,
    token, ..., gap]``; the running sum of the part lengths puts token
    ``k``'s start at the end of the gap before it, part ``2k``.
    """
    parts = _SPLIT_RE.split(text)
    forms = parts[1::2]
    ends = list(accumulate(map(len, parts)))
    return forms, ends[0:-1:2], list(map(len, forms))


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
