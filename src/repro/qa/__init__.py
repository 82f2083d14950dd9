"""The sequential Falcon-like Q/A system (Figure 1) and its cost model."""

from .answer_processing import AnswerProcessor, merge_answers
from .batch import BatchStats, execute_batch
from .costs import CostModel, ModuleCost, ReferenceHardware
from .evaluation import EvaluationReport, QuestionOutcome, evaluate, score_result
from .paragraph_ordering import ParagraphOrderer
from .paragraph_retrieval import CollectionWork, ParagraphRetriever, PRResult
from .paragraph_scoring import ParagraphScorer
from .pipeline import QAPipeline, result_fingerprint
from .profile_io import load_profiles, save_profiles
from .profiles import (
    CollectionProfile,
    ParagraphProfile,
    QuestionProfile,
    SyntheticProfileGenerator,
    SyntheticProfileParams,
    profile_question,
)
from .question import (
    Answer,
    ModuleTimings,
    ProcessedQuestion,
    QAResult,
    Question,
    ScoredParagraph,
)
from .question_processing import QuestionProcessor

__all__ = [
    "Answer",
    "AnswerProcessor",
    "BatchStats",
    "CollectionProfile",
    "CollectionWork",
    "CostModel",
    "EvaluationReport",
    "ModuleCost",
    "ModuleTimings",
    "PRResult",
    "ParagraphOrderer",
    "ParagraphProfile",
    "ParagraphRetriever",
    "ParagraphScorer",
    "ProcessedQuestion",
    "QAPipeline",
    "QAResult",
    "Question",
    "QuestionProcessor",
    "QuestionOutcome",
    "QuestionProfile",
    "ReferenceHardware",
    "ScoredParagraph",
    "SyntheticProfileGenerator",
    "SyntheticProfileParams",
    "execute_batch",
    "load_profiles",
    "merge_answers",
    "profile_question",
    "result_fingerprint",
    "save_profiles",
    "score_result",
    "evaluate",
]
