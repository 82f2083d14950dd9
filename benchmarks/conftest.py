"""Shared benchmark plumbing.

Each benchmark regenerates one table/figure of the paper.  The rendered
sections are printed (visible with ``pytest -s``) and collected into
``benchmarks/bench_report.txt`` at session end, so a single
``pytest benchmarks/ --benchmark-only`` run leaves the full
paper-versus-measured report on disk.
"""

from __future__ import annotations

import pathlib

import pytest

_SECTIONS: list[tuple[str, str]] = []


@pytest.fixture()
def report():
    """Collector: call ``report(name, text)`` with the rendered section."""

    def add(name: str, text: str) -> None:
        _SECTIONS.append((name, text))
        print(f"\n{text}\n")

    return add


def pytest_sessionfinish(session, exitstatus):  # noqa: ANN001
    if not _SECTIONS:
        return
    out = pathlib.Path(__file__).parent / "bench_report.txt"
    chunks = []
    for name, text in _SECTIONS:
        chunks.append(f"### {name}\n\n{text}\n")
    out.write_text("\n".join(chunks))
