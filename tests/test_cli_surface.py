"""The surface that is left after the deletion PRs.

The CLI's documented command list is its registered subcommands, the
repository root holds no benchmark artifact beside ``BENCHMARK.json``'s
own, the simulator's queue is not configurable, keyword positions have
one kernel per side of the oracle, collection selection has one mode and
no on/off switch, the span stream is the only trace store, the
pre-record extension experiments took their switches with them, the
server-to-worker wire has one request, one unit and one reply shape, and
every CLI flag and serving option is declared in one place — which the
command lines CI and the verify skill run must still parse against.
"""

import argparse
import dataclasses
import io
import pathlib
import re
import shlex
import sys

import pytest

from repro import cli
from repro.core import SystemConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_documented_commands_are_the_registered_ones(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    registered = set(
        re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    )
    commands = cli.__doc__.split("--------\n", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"^(\w+) ", commands, flags=re.MULTILINE))
    assert documented | {"exp"} == registered
    assert documented == {
        "ask", "simulate", "chaos", "model", "experiments",
        "observe", "serve", "loadgen", "top",
    }


def test_no_bench_artifact_at_the_repository_root():
    assert not list(ROOT.glob("BENCH_*.json"))


def test_queue_backend_is_not_configurable():
    with pytest.raises(TypeError):
        SystemConfig(queue_impl="heap")


# The retired names below are spelled in two halves so that a grep for
# them over src/ and tests/ stays empty.
def test_one_keyword_position_kernel_per_side_of_the_oracle():
    from repro.qa import paragraph_scoring

    assert not hasattr(paragraph_scoring, "keyword_positions_from_" "terms")
    assert hasattr(paragraph_scoring, "keyword_positions_from_ids")
    assert hasattr(paragraph_scoring, "keyword_positions")


def test_selector_has_one_mode(shared_indexed_corpus):
    import repro.retrieval
    from repro.retrieval.selection import CollectionSelector

    for retired in ("SELECTION_" "MODES", "Pruned" "Work"):
        assert not hasattr(repro.retrieval, retired)
    sketches = shared_indexed_corpus.sketches()
    vocab = shared_indexed_corpus.indexes[0].vocab
    with pytest.raises(TypeError):
        CollectionSelector(sketches, vocab, mode="exact")
    with pytest.raises(TypeError):
        shared_indexed_corpus.selector(mode="exact")


def test_simulated_routing_is_an_input_not_a_switch():
    from repro.corpus import CorpusConfig
    from repro.experiments.context import build_serving_context

    with pytest.raises(TypeError):
        SystemConfig(**{"collection_" "selection": "off"})
    with pytest.raises(TypeError):
        build_serving_context(CorpusConfig(), selection="off")


def test_retired_extension_switches_are_not_configurable():
    for retired in (
        "work_" "stealing", "steal_" "interval_s", "gradient_" "balancing",
        "gradient_" "interval_s", "dns_" "cache_skew",
    ):
        with pytest.raises(TypeError):
            SystemConfig(**{retired: 0})


def test_span_stream_is_the_only_trace_store():
    import repro.core

    for retired in ("Tra" "cer", "Trace" "Event", "Gradient" "Balancer"):
        assert not hasattr(repro.core, retired)


def test_no_second_way_to_regenerate_a_paper_table():
    assert not (ROOT / "benchmarks").exists()


def test_one_wire_shape_per_hop():
    from repro.serving.workers import (
        ExecutionResult, InlineExecutor, ProcessWorkerPool,
    )

    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in (
        "submit_" "batch", "_request_" "fields", "_span_" "reply",
        "pack_" "spans", "graft_" "spans", "worker_span_" "records",
        "Packed" "Span", "_batch" "ing",
    ):
        assert retired not in source, retired
    assert source.count('"stage:PR-batch", SpanCategory') == 1
    for executor in (ProcessWorkerPool, InlineExecutor):
        verbs = {n for n in vars(executor) if n.startswith(("submit", "dispatch"))}
        assert verbs == {"submit"}
    fields = {f.name for f in dataclasses.fields(ExecutionResult)}
    assert "timings" in fields and not fields & {"pr_s", "spans"}


# -- declared once: CLI flags and serving options ------------------------------------
def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        a
        for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _options(sub: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}


def test_loadgen_takes_every_serve_flag_as_serve_declares_it():
    subs = _subparsers()
    serve, loadgen = _options(subs["serve"]), _options(subs["loadgen"])
    assert len(serve) == 11
    for dest, flag in serve.items():
        twin = loadgen[dest]
        assert (twin.option_strings, twin.type, twin.help) == (
            flag.option_strings, flag.type, flag.help,
        ), dest
    # The per-command default is the one thing a row may change.
    assert (serve["service_time"].default, loadgen["service_time"].default) == (
        0.05, None,
    )


def test_every_flag_is_declared_once():
    declared = {id(f): f for cmd in cli._COMMANDS for f in cmd.flags}.values()
    names = [name for flag_names, _ in declared for name in flag_names]
    assert len(names) == len(set(names))
    assert {cmd.name for cmd in cli._COMMANDS} | {"exp"} == set(_subparsers())


@pytest.mark.parametrize(
    "retired",
    [
        ["--measure-obs-" "overhead"],
        ["--no-" "pace"],
        ["--batch-" "wait", "0.01"],
        ["--decisions-" "out", "d.json"],
    ],
)
def test_retired_loadgen_flags_are_rejected(retired, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["loadgen", *retired])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_no_serving_value_is_a_field_of_two_configs():
    from repro.serving import AdmissionConfig, LoadgenConfig, ServerConfig

    def names(config) -> set[str]:
        return {f.name for f in dataclasses.fields(config)}

    # The estimate is the protocol's own: calibrated or given, then
    # written into each run's admission config.
    assert names(LoadgenConfig) & (names(ServerConfig) | names(AdmissionConfig)) == {
        "est_service_s"
    }
    assert not names(ServerConfig) & names(AdmissionConfig)
    assert len(names(LoadgenConfig)) <= 12
    with pytest.raises(TypeError):
        ServerConfig(**{"metrics_" "snapshot_every": 16})


def test_a_second_serve_in_one_process_prints_its_answers(
    monkeypatch, capsys, shared_pipeline, shared_questions
):
    import repro.serving
    from repro.serving import InlineExecutor, QAServer

    monkeypatch.setattr(
        repro.serving,
        "QAServer",
        lambda config: QAServer(config, pool=InlineExecutor(shared_pipeline)),
    )
    asked = "".join(f"{q.text}\n" for q in shared_questions[:2])
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO(asked))
        cli.main(["serve", "--workers", "0"])
        out = capsys.readouterr().out
        assert re.findall(r"^\[(\d+)\] .* worker 0\)$", out, re.MULTILINE) == [
            "0", "1",
        ]


def _documented_commands(text: str):
    """Every ``python -m repro <cmd> ...`` line of ``text``, as argv."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        found = re.search(r"python -m repro ([a-z]+\b.*)", line)
        if found is None:
            continue
        command = found.group(1)
        # A command goes on after a trailing backslash, and onto a next
        # line that starts with a flag (YAML folded scalar, wrapped prose).
        while command.endswith("\\") or (
            i + 1 < len(lines) and re.match(r"\s*--?[a-z]", lines[i + 1])
        ):
            i += 1
            command = command.rstrip("\\") + " " + lines[i].strip()
        command = command.split("`")[0]  # prose: the backtick ends it
        # Shell substitutions stand for one value.
        command = re.sub(r'"\$\(.*\)"|"\$\w+"', "0", command)
        yield shlex.split(command, comments=True)


@pytest.mark.parametrize(
    "path", [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]
)
def test_documented_command_lines_still_parse(path):
    commands = list(_documented_commands((ROOT / path).read_text()))
    assert len(commands) >= 5  # the extraction is not vacuous
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{path}: `repro {' '.join(argv)}` no longer parses")
