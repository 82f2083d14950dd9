"""Question-profile persistence.

Profiling the real pipeline over hundreds of questions is the slow step of
the end-to-end experiments; saving profiles lets a simulation campaign be
re-run (or shared) without touching the corpus at all.
"""

from __future__ import annotations

import gzip
import json
import pathlib
import typing as t
from array import array

from .costs import ModuleCost
from .profiles import CollectionProfile, QuestionProfile

__all__ = ["save_profiles", "load_profiles"]

_FORMAT_VERSION = 1


def _open(path: pathlib.Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _profile_to_dict(p: QuestionProfile) -> dict:
    return {
        "qid": p.qid,
        "question_bytes": p.question_bytes,
        "keyword_bytes": p.keyword_bytes,
        "n_keywords": p.n_keywords,
        "qp_cpu_s": p.qp_cpu_s,
        "po_cpu_s": p.po_cpu_s,
        "n_answers": p.n_answers,
        "answer_bytes": p.answer_bytes,
        "memory_bytes": p.memory_bytes,
        "collections": [
            {
                "collection_id": c.collection_id,
                "cpu_s": c.cost.cpu_s,
                "disk_bytes": c.cost.disk_bytes,
                "n_paragraphs": c.n_paragraphs,
                "paragraph_bytes": c.paragraph_bytes,
                "ps_cpu_s": c.ps_cpu_s,
            }
            for c in p.collections
        ],
        # The profile's paragraph columns: paragraphs dominate the payload.
        "paragraph_sizes": p.paragraph_bytes.tolist(),
        "paragraph_ap_cpu": p.paragraph_ap_cpu_s.tolist(),
    }


def _profile_from_dict(d: dict) -> QuestionProfile:
    return QuestionProfile(
        qid=d["qid"],
        question_bytes=d["question_bytes"],
        keyword_bytes=d["keyword_bytes"],
        n_keywords=d["n_keywords"],
        qp_cpu_s=d["qp_cpu_s"],
        collections=[
            CollectionProfile(
                collection_id=c["collection_id"],
                cost=ModuleCost(cpu_s=c["cpu_s"], disk_bytes=c["disk_bytes"]),
                n_paragraphs=c["n_paragraphs"],
                paragraph_bytes=c["paragraph_bytes"],
                ps_cpu_s=c["ps_cpu_s"],
            )
            for c in d["collections"]
        ],
        po_cpu_s=d["po_cpu_s"],
        paragraph_bytes=array("d", d["paragraph_sizes"]),
        paragraph_ap_cpu_s=array("d", d["paragraph_ap_cpu"]),
        n_answers=d["n_answers"],
        answer_bytes=d["answer_bytes"],
        memory_bytes=d["memory_bytes"],
    )


def save_profiles(
    profiles: t.Sequence[QuestionProfile], path: str | pathlib.Path
) -> None:
    """Write profiles to JSON (gzip if the name ends in .gz)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "profiles": [_profile_to_dict(p) for p in profiles],
    }
    with _open(pathlib.Path(path), "w") as fh:
        json.dump(payload, fh)


def load_profiles(path: str | pathlib.Path) -> list[QuestionProfile]:
    """Load profiles written by :func:`save_profiles`."""
    with _open(pathlib.Path(path), "r") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported profile format version: {version!r}")
    return [_profile_from_dict(d) for d in payload["profiles"]]
