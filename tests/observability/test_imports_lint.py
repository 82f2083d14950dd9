"""Lint: every module-level import in src/ is referenced in its file.

Walks every module under ``src/repro`` with :mod:`ast` and fails on a
top-level ``import`` / ``from ... import`` whose bound name never appears
again in that file.  A name counts as referenced when it occurs as an
identifier anywhere in the module, inside a quoted annotation
(``"QAPipeline"``), or in ``__all__`` (a deliberate re-export).
``__init__.py`` files are exempt: re-exporting is their job.

The point is that a deletion PR takes its imports with it — a leftover
import keeps a dependency edge alive that no code uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, bound name) of each import outside any function or class."""
    out = []
    stack: list[ast.AST] = [tree]
    while stack:
        for node in ast.iter_child_nodes(stack.pop()):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    out.append((node.lineno, bound))
            elif isinstance(node, (ast.If, ast.Try)):
                stack.append(node)  # ``if t.TYPE_CHECKING:`` / guarded imports
    return out


def _annotations(tree: ast.AST) -> list[ast.expr]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            out.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            out.append(node.annotation)
    return out


def _referenced_names(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(tgt, ast.Name) and tgt.id == "__all__" for tgt in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _referenced_names(tree)
    return sorted(imp for imp in _module_level_imports(tree) if imp[1] not in used)


def _source_files() -> list[Path]:
    return sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


class TestModuleImports:
    def test_every_module_level_import_is_referenced(self):
        problems = [
            f"{path.relative_to(SRC)}:{lineno}: {name!r} imported but unused"
            for path in _source_files()
            for lineno, name in _unused_imports(path.read_text())
        ]
        assert not problems, "\n".join(problems)

    def test_lint_actually_sees_imports(self):
        """Guard against the walker silently matching nothing."""
        n_imports = sum(
            len(_module_level_imports(ast.parse(p.read_text())))
            for p in _source_files()
        )
        assert n_imports >= 300, f"only {n_imports} imports found"

    def test_a_leftover_import_is_caught(self):
        source = (
            "from __future__ import annotations\n"
            "import typing as t\n"
            "from dataclasses import dataclass, field\n"
            "if t.TYPE_CHECKING:\n"
            "    from .spans import Span, SpanStream\n"
            "from .names import A, B\n"
            "__all__ = ['B', 'f']\n"
            "@dataclass\n"
            "class C:\n"
            "    s: 'list[Span]'\n"
            "def f() -> None:\n"
            "    import json\n"
        )
        assert _unused_imports(source) == [(3, "field"), (5, "SpanStream"), (6, "A")]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
