"""Cost model: translating Q/A work into simulated resource demands.

The reproduction runs the *real* pipeline on a laptop-scale synthetic
corpus, but the paper's timings come from a 3 GB collection on 500 MHz
Pentium III nodes.  The cost model bridges the two: it converts the work
counters the pipeline reports (postings scanned, bytes read, paragraph
bytes, candidate counts) into simulated CPU-seconds and disk-bytes on the
modelled reference node, with rates calibrated so the *average* simulated
question matches Table 2's module breakdown (QP 1.2 %, PR 26.5 %, PS
2.2 %, PO 0.1 %, AP 69.7 %, ~94 s total) and the resource splits match
Table 3 (QA 0.79/0.21, PR 0.20/0.80, AP 1.00/0.00).

All rates are explicit dataclass fields; :func:`calibrate` fits them to
any pipeline + question set, and ``CostModel.default()`` carries the
values fitted against the default corpus (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["ReferenceHardware", "CostModel", "ModuleCost"]


@dataclass(frozen=True, slots=True)
class ReferenceHardware:
    """The modelled node: 500 MHz PIII, 256 MB RAM, one IDE disk.

    ``disk_bandwidth`` is the effective sequential read rate used to turn
    disk-bytes into seconds; 2001-era IDE disks streamed ~25 MB/s.
    """

    cpu_speed: float = 1.0  # reference CPU-seconds per second
    disk_bandwidth: float = 25e6  # bytes/second
    memory_bytes: float = 256e6


@dataclass(frozen=True, slots=True)
class ModuleCost:
    """Simulated resource demand of one module execution (or sub-task)."""

    cpu_s: float
    disk_bytes: float

    def seconds_on(self, hw: ReferenceHardware) -> float:
        """Uncontended duration on ``hw`` (CPU and disk serialised)."""
        return self.cpu_s / hw.cpu_speed + self.disk_bytes / hw.disk_bandwidth

    def scaled(self, factor: float) -> "ModuleCost":
        return ModuleCost(self.cpu_s * factor, self.disk_bytes * factor)

    def __add__(self, other: "ModuleCost") -> "ModuleCost":
        return ModuleCost(self.cpu_s + other.cpu_s, self.disk_bytes + other.disk_bytes)


_ZERO = ModuleCost(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class CostModel:
    """Per-unit rates converting pipeline work counters into demands.

    The defaults reproduce the paper's module-time breakdown on the default
    corpus; ``calibrate`` refits them for other corpora.
    """

    # QP: flat semantic analysis plus per-keyword lexicon work.  Pure CPU.
    qp_base_cpu_s: float = 0.70
    qp_per_keyword_cpu_s: float = 0.06

    # PR: dominated by index/posting/document disk reads (Table 3: 80 %
    # disk).  ``pr_byte_scale`` maps laptop-corpus bytes to 3 GB-corpus
    # equivalents; cpu is charged proportionally to disk time to hold the
    # 20/80 split.
    pr_base_bytes: float = 2.0e6  # per-collection index lookup floor
    pr_byte_scale: float = 1.17e4
    pr_cpu_per_disk_s: float = 0.25  # cpu seconds per disk second => 20/80

    # PS: light surface scoring, pure CPU, proportional to scanned bytes.
    ps_cpu_per_byte: float = 4.4e-6

    # PO: centralized sort, pure CPU.
    po_base_cpu_s: float = 0.005
    po_cpu_per_paragraph_s: float = 3.0e-5

    # AP: named-entity recognition + window scoring, pure CPU (Table 3:
    # 100 % CPU), superlinear in candidate density.
    ap_cpu_per_byte: float = 1.38e-4
    ap_cpu_per_candidate_s: float = 0.044

    # Messaging/memory constants (the analytical model's S_* parameters).
    answer_bytes: float = 250.0  # long-answer size (Table 1)
    memory_per_question: tuple[float, float] = (25e6, 40e6)

    hardware: ReferenceHardware = ReferenceHardware()

    # -- per-module demand constructors ------------------------------------------
    def qp_cost(self, n_keywords: int) -> ModuleCost:
        return ModuleCost(
            self.qp_base_cpu_s + self.qp_per_keyword_cpu_s * n_keywords, 0.0
        )

    def pr_collection_cost(
        self, postings_scanned: float, doc_bytes_read: float
    ) -> ModuleCost:
        """One PR sub-task (one sub-collection)."""
        disk = self.pr_base_bytes + self.pr_byte_scale * (
            8.0 * postings_scanned + doc_bytes_read
        )
        disk_seconds = disk / self.hardware.disk_bandwidth
        return ModuleCost(self.pr_cpu_per_disk_s * disk_seconds, disk)

    # PS/AP operate on real paragraph bytes; scale them like PR scales
    # disk bytes so module proportions survive the corpus-size
    # substitution (the synthetic corpus is ~1000x smaller than TREC-9).
    work_scale: float = 60.0

    def ps_cost(self, paragraph_bytes: float) -> ModuleCost:
        return ModuleCost(
            self.ps_cpu_per_byte * self.work_scale * paragraph_bytes, 0.0
        )

    def po_cost(self, n_paragraphs: int) -> ModuleCost:
        n = max(1, n_paragraphs)
        return ModuleCost(
            self.po_base_cpu_s
            + self.po_cpu_per_paragraph_s * n * math.log2(n + 1) / 10.0,
            0.0,
        )

    def ap_paragraph_cost(
        self, paragraph_bytes: float, n_candidates: int
    ) -> ModuleCost:
        """One AP sub-task unit (one accepted paragraph)."""
        return ModuleCost(
            self.ap_cpu_per_byte * self.work_scale * paragraph_bytes
            + self.ap_cpu_per_candidate_s * n_candidates,
            0.0,
        )

    # -- convenience -------------------------------------------------------------
    def with_rates(self, **kwargs: float) -> "CostModel":
        """Copy with some rates replaced (used by calibration)."""
        return replace(self, **kwargs)

    @classmethod
    def default(cls) -> "CostModel":
        """Rates fitted against the default corpus (see calibration test)."""
        return cls()
