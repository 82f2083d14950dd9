"""Question profiles: the workload unit the simulated cluster executes.

A :class:`QuestionProfile` captures everything the distributed simulation
needs to execute one Q/A task: per-module simulated resource demands, the
iterative structure (per-collection PR sub-tasks, per-paragraph AP
sub-tasks), message sizes, and memory footprint.

Two construction paths:

* :func:`profile_question` — run the *real* pipeline modules on the
  synthetic corpus and convert the measured work through the
  :class:`~repro.qa.costs.CostModel`.  Honest data flow; used for
  correctness-sensitive experiments and examples.
* :class:`SyntheticProfileGenerator` — sample profiles directly from
  distributions calibrated to the paper's Table 8 statistics (n_pa ≈ 440
  accepted paragraphs for complex questions, PR collection-time skew with
  max/mean ≈ 1.5, rank-correlated AP costs).  Used for the large
  parameter sweeps (hundreds of questions × a dozen strategies) where
  running the real pipeline for every configuration would only add noise,
  and for experiments needing paragraph counts beyond what the laptop
  corpus yields (e.g. Fig 10's 100-paragraph chunks).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from .costs import CostModel, ModuleCost
from .question import Question

if t.TYPE_CHECKING:  # pragma: no cover
    from .pipeline import QAPipeline

__all__ = [
    "CollectionProfile",
    "ParagraphProfile",
    "QuestionProfile",
    "profile_question",
    "SyntheticProfileGenerator",
    "SyntheticProfileParams",
]


@dataclass(frozen=True, slots=True)
class CollectionProfile:
    """One PR sub-task: retrieval against one sub-collection."""

    collection_id: int
    cost: ModuleCost
    n_paragraphs: int
    paragraph_bytes: float
    #: PS work for the paragraphs this collection yields (PS replicas run
    #: behind each PR replica, Fig 3).
    ps_cpu_s: float


@dataclass(frozen=True, slots=True)
class ParagraphProfile:
    """One AP sub-task unit: one accepted paragraph, in PO rank order."""

    size_bytes: float
    ap_cpu_s: float


@dataclass(slots=True)
class QuestionProfile:
    """Complete simulated workload of one Q/A task."""

    qid: int
    question_bytes: float
    keyword_bytes: float
    n_keywords: int
    qp_cpu_s: float
    collections: list[CollectionProfile]
    po_cpu_s: float
    #: Accepted paragraphs in PO rank order (the paper's n_pa items).
    paragraphs: list[ParagraphProfile]
    n_answers: int
    answer_bytes: float
    memory_bytes: float
    #: Mediator routing decision (collection ids the selector kept): the
    #: simulated PR stage fans out over these only.  ``None`` = no
    #: selection ran — the PR fan-out broadcasts.
    selected_collections: tuple[int, ...] | None = None

    # -- aggregates used all over the experiments -------------------------------
    @property
    def n_accepted(self) -> int:
        return len(self.paragraphs)

    @property
    def n_retrieved(self) -> int:
        return sum(c.n_paragraphs for c in self.collections)

    @property
    def pr_cost(self) -> ModuleCost:
        total = ModuleCost(0.0, 0.0)
        for c in self.collections:
            total = total + c.cost
        return total

    @property
    def ps_cpu_s(self) -> float:
        return sum(c.ps_cpu_s for c in self.collections)

    @property
    def ap_cpu_s(self) -> float:
        return sum(p.ap_cpu_s for p in self.paragraphs)

    def sequential_module_seconds(self, model: CostModel) -> dict[str, float]:
        """Uncontended per-module durations on the reference node."""
        hw = model.hardware
        pr = self.pr_cost
        return {
            "QP": self.qp_cpu_s / hw.cpu_speed,
            "PR": pr.seconds_on(hw),
            "PS": self.ps_cpu_s / hw.cpu_speed,
            "PO": self.po_cpu_s / hw.cpu_speed,
            "AP": self.ap_cpu_s / hw.cpu_speed,
        }

    def sequential_seconds(self, model: CostModel) -> float:
        return sum(self.sequential_module_seconds(model).values())


def profile_question(
    pipeline: "QAPipeline",
    question: Question | str,
    model: CostModel,
    qid: int = 0,
) -> QuestionProfile:
    """Execute the real pipeline and convert its work into a profile.

    Runs the modules individually (rather than ``pipeline.answer``) to
    capture per-collection and per-paragraph work detail.
    """
    if isinstance(question, str):
        question = Question(qid=qid, text=question)

    processed = pipeline.qp.process(question)
    qp_cost = model.qp_cost(len(processed.keywords))

    collections: list[CollectionProfile] = []
    all_scored = []
    for cid in range(pipeline.pr.n_collections):
        pr_result = pipeline.pr.retrieve(processed, collection_ids=[cid])
        work = pr_result.per_collection[0]
        para_bytes = float(sum(p.size_bytes for p in pr_result.paragraphs))
        scored = pipeline.ps.score(processed, pr_result.paragraphs)
        all_scored.extend(scored)
        collections.append(
            CollectionProfile(
                collection_id=cid,
                cost=model.pr_collection_cost(
                    work.postings_scanned, work.doc_bytes_read
                ),
                n_paragraphs=len(pr_result.paragraphs),
                paragraph_bytes=para_bytes,
                ps_cpu_s=model.ps_cost(para_bytes).cpu_s,
            )
        )

    accepted = pipeline.po.order(all_scored)
    po_cost = model.po_cost(len(all_scored))

    paragraphs: list[ParagraphProfile] = []
    for sp in accepted:
        n_cands = len(pipeline.ap.candidates(processed, sp.paragraph))
        cost = model.ap_paragraph_cost(sp.paragraph.size_bytes, n_cands)
        paragraphs.append(
            ParagraphProfile(
                size_bytes=float(sp.paragraph.size_bytes),
                ap_cpu_s=cost.cpu_s,
            )
        )

    rng = np.random.default_rng(qid + 12345)
    mem_lo, mem_hi = model.memory_per_question
    keyword_bytes = float(
        sum(len(kw.text.encode()) + 8 for kw in processed.keywords)
    )
    return QuestionProfile(
        qid=question.qid,
        question_bytes=float(question.size_bytes),
        keyword_bytes=keyword_bytes,
        n_keywords=len(processed.keywords),
        qp_cpu_s=qp_cost.cpu_s,
        collections=collections,
        po_cpu_s=po_cost.cpu_s,
        paragraphs=paragraphs,
        n_answers=pipeline.ap.n_answers,
        answer_bytes=model.answer_bytes,
        memory_bytes=float(rng.uniform(mem_lo, mem_hi)),
    )


@dataclass(frozen=True, slots=True)
class SyntheticProfileParams:
    """Distribution parameters for synthetic profiles.

    Defaults target the paper's *average* TREC-9 question (Table 2:
    ~94 s total, 69.7 % AP / 26.5 % PR).  ``complex()`` targets Table 8's
    complex-question population (~158 s total, n_pa ≈ 440).
    """

    n_collections: int = 8
    #: Mean/sigma of the lognormal total PR disk time (reference node).
    pr_disk_seconds_mean: float = 19.9  # 24.9 s PR * 80 % disk
    pr_disk_seconds_sigma: float = 0.35
    #: Skew of per-collection shares (Dirichlet alpha; lower = more skew).
    pr_collection_alpha: float = 4.0
    pr_cpu_per_disk_s: float = 0.25
    #: Accepted paragraph count (lognormal, clipped).
    n_accepted_mean: float = 250.0
    n_accepted_sigma: float = 0.45
    n_accepted_range: tuple[int, int] = (20, 900)
    #: Retrieved:accepted ratio (the PO threshold discards the rest).
    retrieved_per_accepted: float = 3.0
    #: Total AP CPU time (lognormal), split over paragraphs rank-decayed.
    ap_seconds_mean: float = 65.5
    ap_seconds_sigma: float = 0.40
    #: First-rank paragraphs cost this many times the last-rank ones.
    ap_rank_decay: float = 3.0
    #: Per-paragraph multiplicative noise sigma.
    ap_noise_sigma: float = 0.30
    paragraph_bytes_range: tuple[float, float] = (800.0, 4000.0)
    n_keywords_range: tuple[int, int] = (4, 9)
    ps_fraction_of_ap: float = 0.032  # PS ~2.1 s vs AP 65.5 s (Table 2)
    qp_cpu_range: tuple[float, float] = (0.7, 1.3)
    po_cpu_s: float = 0.06
    n_answers: int = 5
    #: Simulated mediator decision: keep the top ``round(fraction * n)``
    #: collections by PR share (the heaviest collections are the ones a
    #: df-weighted selector keeps).  ``None`` = profiles carry no
    #: selection — the fan-out broadcasts.  Derived from the existing
    #: Dirichlet draw, so the RNG sequence (and every other field) is
    #: unchanged by turning this on.
    selected_fraction: float | None = None

    def scaled(self, factor: float) -> "SyntheticProfileParams":
        """Scale the work-size parameters by ``factor`` (keeps shapes)."""
        from dataclasses import replace

        lo, hi = self.n_accepted_range
        return replace(
            self,
            pr_disk_seconds_mean=self.pr_disk_seconds_mean * factor,
            ap_seconds_mean=self.ap_seconds_mean * factor,
            n_accepted_mean=self.n_accepted_mean * factor,
            n_accepted_range=(max(5, int(lo * factor)), max(10, int(hi * factor))),
        )

    @classmethod
    def complex(cls) -> "SyntheticProfileParams":
        """Parameters matching Table 8's complex-question population."""
        return cls(
            pr_disk_seconds_mean=30.4,  # 38.01 s * 80 %
            # The paper's Fig 7 example question carries 883 accepted
            # paragraphs; the complex population centres there.
            n_accepted_mean=880.0,
            n_accepted_sigma=0.25,
            n_accepted_range=(240, 1600),
            ap_seconds_mean=117.55,
            ap_seconds_sigma=0.25,
            ap_rank_decay=2.2,
            ps_fraction_of_ap=0.0175,  # PS 2.06 s vs AP 117.55 s (Table 8)
        )


class SyntheticProfileGenerator:
    """Samples :class:`QuestionProfile` objects from calibrated laws."""

    def __init__(
        self,
        params: SyntheticProfileParams | None = None,
        model: CostModel | None = None,
        seed: int = 0,
    ) -> None:
        self.params = params or SyntheticProfileParams()
        self.model = model or CostModel.default()
        self.rng = np.random.default_rng(seed)

    def generate(self, qid: int) -> QuestionProfile:
        p = self.params
        rng = self.rng
        hw = self.model.hardware

        n_keywords = int(rng.integers(*p.n_keywords_range))
        qp_cpu = float(rng.uniform(*p.qp_cpu_range))

        # --- PR: total disk seconds split over collections with skew ------
        pr_disk_total = float(
            rng.lognormal(
                np.log(p.pr_disk_seconds_mean) - p.pr_disk_seconds_sigma**2 / 2,
                p.pr_disk_seconds_sigma,
            )
        )
        shares = rng.dirichlet([p.pr_collection_alpha] * p.n_collections)

        # --- acceptance counts --------------------------------------------------
        n_accepted = int(
            np.clip(
                rng.lognormal(
                    np.log(p.n_accepted_mean) - p.n_accepted_sigma**2 / 2,
                    p.n_accepted_sigma,
                ),
                *p.n_accepted_range,
            )
        )
        n_retrieved = int(n_accepted * p.retrieved_per_accepted)

        # --- AP: rank-decayed per-paragraph costs ---------------------------------
        ap_total = float(
            rng.lognormal(
                np.log(p.ap_seconds_mean) - p.ap_seconds_sigma**2 / 2,
                p.ap_seconds_sigma,
            )
        )
        ranks = np.arange(n_accepted)
        decay = 1.0 + (p.ap_rank_decay - 1.0) * np.exp(
            -3.0 * ranks / max(1, n_accepted)
        )
        noise = rng.lognormal(0.0, p.ap_noise_sigma, size=n_accepted)
        weights = decay * noise
        ap_each = ap_total * weights / weights.sum()
        sizes = rng.uniform(*p.paragraph_bytes_range, size=n_accepted)

        paragraphs = [
            ParagraphProfile(size_bytes=float(s), ap_cpu_s=float(c))
            for s, c in zip(sizes, ap_each)
        ]

        # --- collections carry PR cost + their slice of PS work -------------------
        ps_total = ap_total * p.ps_fraction_of_ap
        retrieved_bytes_total = float(np.mean(sizes)) * n_retrieved
        collections = []
        para_per_coll = np.floor(shares * n_retrieved).astype(int)
        for cid in range(p.n_collections):
            disk_s = pr_disk_total * float(shares[cid])
            collections.append(
                CollectionProfile(
                    collection_id=cid,
                    cost=ModuleCost(
                        cpu_s=p.pr_cpu_per_disk_s * disk_s,
                        disk_bytes=disk_s * hw.disk_bandwidth,
                    ),
                    n_paragraphs=int(para_per_coll[cid]),
                    paragraph_bytes=retrieved_bytes_total * float(shares[cid]),
                    ps_cpu_s=ps_total * float(shares[cid]),
                )
            )

        selected: tuple[int, ...] | None = None
        if p.selected_fraction is not None:
            k = max(1, round(p.selected_fraction * p.n_collections))
            if k < p.n_collections:
                ranked = sorted(
                    range(p.n_collections),
                    key=lambda cid: (-shares[cid], cid),
                )
                selected = tuple(sorted(ranked[:k]))
            else:
                selected = tuple(range(p.n_collections))

        mem_lo, mem_hi = self.model.memory_per_question
        return QuestionProfile(
            qid=qid,
            question_bytes=float(rng.integers(40, 120)),
            keyword_bytes=float(n_keywords * 12),
            n_keywords=n_keywords,
            qp_cpu_s=qp_cpu,
            collections=collections,
            po_cpu_s=p.po_cpu_s,
            paragraphs=paragraphs,
            n_answers=p.n_answers,
            answer_bytes=self.model.answer_bytes,
            memory_bytes=float(rng.uniform(mem_lo, mem_hi)),
            selected_collections=selected,
        )

    def generate_many(self, n: int, start_qid: int = 0) -> list[QuestionProfile]:
        return [self.generate(start_qid + i) for i in range(n)]
