"""Data model shared by the Q/A pipeline modules.

Mirrors the inter-module interfaces of Figure 1: QP produces a processed
question (answer type + keywords); PR produces paragraphs; PS scores them;
PO orders and filters them; AP produces ranked answers.  The paper stresses
that "the inter-module communication is minimal" (Section 2.2) — these
small dataclasses are exactly that minimal surface, which is why the
distributed system can cheaply migrate work at the module boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nlp.entities import EntityType
from ..nlp.keywords import Keyword
from ..retrieval.inverted_index import ParagraphTerms
from ..retrieval.paragraphs import Paragraph

__all__ = [
    "Question",
    "ProcessedQuestion",
    "ScoredParagraph",
    "Answer",
    "QAResult",
    "ModuleTimings",
    "BatchStats",
]


@dataclass(frozen=True, slots=True)
class Question:
    """A user question entering the system."""

    qid: int
    text: str

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))


@dataclass(frozen=True, slots=True)
class ProcessedQuestion:
    """QP output: semantic info + retrieval keywords (Section 2.1)."""

    question: Question
    answer_type: EntityType
    keywords: tuple[Keyword, ...]


@dataclass(slots=True, unsafe_hash=True)
class ScoredParagraph:
    """PS output: a paragraph with its relevance score.

    Not frozen: PS builds one per retrieved paragraph of every question,
    and a frozen dataclass pays ``object.__setattr__`` per field to do
    it.  It still hashes by value, ``match`` excluded; nobody writes to
    one after PS.
    """

    paragraph: Paragraph
    score: float
    #: Number of query keywords present (AP's coverage heuristic).
    keywords_present: int
    #: PS's match, handed forward to AP: the paragraph's term view and
    #: each keyword's token positions in it.  ``None`` when the scored
    #: paragraph was built by hand: AP then matches for itself.
    match: tuple[ParagraphTerms, list[list[int]]] | None = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True, slots=True)
class Answer:
    """AP output: one extracted answer.

    ``short`` is the 50-byte TREC-style answer string, ``long`` the
    250-byte context (Table 1's two output formats).
    """

    text: str
    short: str
    long: str
    score: float
    paragraph_key: tuple[int, int]
    entity_type: EntityType

    @property
    def size_bytes(self) -> int:
        return len(self.long.encode("utf-8"))


@dataclass(slots=True)
class ModuleTimings:
    """Wall-clock seconds spent in each module (real execution)."""

    qp: float = 0.0
    pr: float = 0.0
    ps: float = 0.0
    po: float = 0.0
    ap: float = 0.0

    @property
    def total(self) -> float:
        return self.qp + self.pr + self.ps + self.po + self.ap

    def fractions(self) -> dict[str, float]:
        tot = self.total or 1.0
        return {
            "QP": self.qp / tot,
            "PR": self.pr / tot,
            "PS": self.ps / tot,
            "PO": self.po / tot,
            "AP": self.ap / tot,
        }


@dataclass(slots=True)
class QAResult:
    """Full pipeline output for one question."""

    processed: ProcessedQuestion
    answers: list[Answer]
    #: All retrieved paragraphs (PR output size, the paper's n_p).
    n_retrieved: int
    #: Paragraphs accepted by PO (the paper's n_pa).
    n_accepted: int
    timings: ModuleTimings = field(default_factory=ModuleTimings)
    #: Work counters for the simulation cost model.
    work: dict[str, float] = field(default_factory=dict)
    #: Accepted paragraph keys in PO rank order (part of
    #: :func:`repro.qa.result_fingerprint`).
    paragraph_ranks: tuple[tuple[int, int], ...] = ()

    @property
    def best(self) -> Answer | None:
        return self.answers[0] if self.answers else None


@dataclass(slots=True)
class BatchStats:
    """What one ``answer_batch`` call shared: its questions and the
    distinct question texts among them (each answered once)."""

    n_questions: int = 0
    n_distinct: int = 0

    @property
    def sharing_factor(self) -> float:
        """Questions per distinct execution (1.0 = no sharing)."""
        return self.n_questions / self.n_distinct if self.n_distinct else 1.0
