"""Lint: the metric names used in src/ and the ones declared in names.py
are the same set.

Walks every module under ``src/repro`` with :mod:`ast` and checks that
the first argument of each ``counter()/gauge()/histogram()/inc()/
observe()`` call resolves to a canonical name declared in
:mod:`repro.observability.names`; no name is built by concatenation,
so no declared value is a prefix.  In the other direction, every declared
name must be written somewhere: by such a call, or as the key of a
subscript store (``work[POSTINGS_SCANNED] = ...``, the pipeline's work
dict).

The point is to keep the vocabulary closed both ways — a typo'd or
ad-hoc metric name fails this test instead of silently forking the
namespace, and a name whose last writer was deleted fails it instead of
lingering in names.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.observability import names as names_module

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Registry entry points whose first argument is a metric name.
_METRIC_METHODS = {"counter", "gauge", "histogram", "inc", "observe"}

#: names.py is the declaration site, not a call site.
_EXEMPT = {"observability/names.py"}

#: Binding of a metric method's own parameters: the registry's shorthand
#: (``def inc(self, name, ...)``) forwards its caller's name, and the
#: caller is linted.
_FORWARDED = object()

DECLARED = {getattr(names_module, n) for n in names_module.__all__}

#: Names importable from the names module (``from ..names import X``).
_CANONICAL_CONSTANTS = {n: getattr(names_module, n) for n in names_module.__all__}


def _is_names_import(node: ast.ImportFrom) -> bool:
    mod = node.module or ""
    return mod == "repro.observability.names" or mod.endswith(
        "observability.names"
    ) or mod == "names"


class _Resolver(ast.NodeVisitor):
    """Collect, per file, every binding that could feed a metric call.

    Scope handling is deliberately flat (one namespace per file): this
    is a lint, and the codebase convention is that metric-name variables
    are only ever bound to canonical constants.
    """

    def __init__(self) -> None:
        self.bindings: dict[str, set[object]] = {}

    def _bind(self, name: str, values: set[object]) -> None:
        self.bindings.setdefault(name, set()).update(values)

    def _values_of(self, node: ast.expr) -> set[object]:
        """Candidate string values of an expression (empty = opaque)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {node.value}
        if isinstance(node, ast.Name):
            if node.id in _CANONICAL_CONSTANTS:
                return {_CANONICAL_CONSTANTS[node.id]}
            return self.bindings.get(node.id, set())
        if isinstance(node, ast.IfExp):
            return self._values_of(node.body) | self._values_of(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            out: set[object] = set()
            for elt in node.elts:
                out |= self._values_of(elt)
            return out
        return set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name in _METRIC_METHODS:
            for arg in node.args.args:
                if arg.arg != "self":
                    self._bind(arg.arg, {_FORWARDED})
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if _is_names_import(node):
            for alias in node.names:
                target = alias.asname or alias.name
                if alias.name in _CANONICAL_CONSTANTS:
                    self._bind(target, {_CANONICAL_CONSTANTS[alias.name]})
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        values = self._values_of(node.value)
        if values:
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self._bind(tgt.id, values)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # ``for name in (POSTINGS_SCANNED, ...)`` binds name to each
        # element of the iterable.
        if isinstance(node.target, ast.Name):
            values = self._values_of(node.iter)
            if values:
                self._bind(node.target.id, values)
        self.generic_visit(node)


def _is_metric_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _METRIC_METHODS
        and bool(node.args)
    )


def _metric_name_args(tree: ast.AST) -> list[tuple[int, ast.expr]]:
    """(lineno, first-arg expression) of every metric registry call.

    A call on a metric handle (``reg.counter(name).inc(amount)``) takes an
    amount, not a name, and is skipped.
    """
    return [
        (node.lineno, node.args[0])
        for node in ast.walk(tree)
        if _is_metric_call(node) and not _is_metric_call(node.func.value)
    ]


def _written_names(path: Path) -> set[object]:
    """Names a file writes: metric-call names and subscript-store keys."""
    tree = ast.parse(path.read_text(), filename=str(path))
    resolver = _Resolver()
    resolver.visit(tree)
    out: set[object] = set()
    for _, arg in _metric_name_args(tree):
        out |= resolver._values_of(arg)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                if isinstance(tgt, ast.Subscript):
                    out |= resolver._values_of(tgt.slice)
    return out


def _check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    resolver = _Resolver()
    resolver.visit(tree)
    problems = []
    rel = path.relative_to(SRC)
    for lineno, arg in _metric_name_args(tree):
        where = f"{rel}:{lineno}"
        values = resolver._values_of(arg)
        if values == {_FORWARDED}:
            continue
        if not values:
            problems.append(
                f"{where}: metric name {ast.dump(arg)} does not resolve "
                "to a canonical constant"
            )
            continue
        for value in values:
            if not isinstance(value, str):
                problems.append(f"{where}: non-string metric name {value!r}")
            elif value not in DECLARED:
                problems.append(
                    f"{where}: metric name {value!r} is not declared in "
                    "repro/observability/names.py"
                )
    return problems


def _source_files() -> list[Path]:
    return sorted(
        p
        for p in SRC.rglob("*.py")
        if str(p.relative_to(SRC)) not in _EXEMPT
    )


class TestDeclarations:
    def test_all_exports_resolve_and_are_unique(self):
        values = [getattr(names_module, n) for n in names_module.__all__]
        assert all(isinstance(v, str) and v for v in values)
        assert len(set(values)) == len(values), "duplicate metric values"

    def test_naming_convention(self):
        for value in DECLARED:
            assert value == value.lower()
            assert " " not in value
            assert "." in value, f"{value!r} has no subsystem prefix"

    def test_no_declared_name_is_a_prefix(self):
        assert not [v for v in DECLARED if v.endswith(".")]


class TestCallSites:
    def test_every_metric_call_uses_a_declared_name(self):
        problems = []
        for path in _source_files():
            problems.extend(_check_file(path))
        assert not problems, "\n".join(problems)

    def test_every_declared_name_is_written(self):
        written: set[object] = set()
        for path in _source_files():
            written |= _written_names(path)
        unwritten = sorted(DECLARED - written)
        assert not unwritten, (
            f"declared in names.py but written by no src/ call site: {unwritten}"
        )

    def test_lint_actually_covers_the_serving_layer(self):
        """Guard against the walker silently matching nothing."""
        n_sites = 0
        for path in _source_files():
            tree = ast.parse(path.read_text())
            n_sites += len(_metric_name_args(tree))
        assert n_sites >= 25, f"only {n_sites} call sites found"

    def test_a_typo_is_caught(self, tmp_path):
        bad = SRC / "serving" / "server.py"
        source = bad.read_text()
        # Simulate a typo'd literal at a call site.
        mutated = tmp_path / "server.py"
        mutated.write_text(
            source + "\n\ndef _bad(reg):\n    reg.inc('serving.typo_name')\n"
        )
        # _check_file keys exemptions off the path relative to SRC, so
        # run the core resolution directly.
        tree = ast.parse(mutated.read_text())
        resolver = _Resolver()
        resolver.visit(tree)
        hits = [
            (lineno, arg)
            for lineno, arg in _metric_name_args(tree)
            if isinstance(arg, ast.Constant)
            and arg.value == "serving.typo_name"
        ]
        assert hits
        assert hits[0][1].value not in DECLARED


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
