"""The surface that is left after the deletion PRs.

The CLI's documented command list is its registered subcommands, the
repository root holds no benchmark artifact beside ``BENCHMARK.json``'s
own, the simulator's queue is not configurable, PS, AP and PR each have
one path in src (their oracles live in tests), collection selection is
gone and PR
visits every collection, the span stream is the only trace store, the
pre-record extension experiments took their switches with them, a
question profile holds its accepted paragraphs as columns only, the
server-to-worker wire has one request, one unit and one reply shape, each
of the paper's two evaluation protocols is written once, workers keep no
metrics registry of their own, the serving front door makes one latency
promise (the admission deadline), Eq 23 is checked by one section, ``simulate``
reports bad input as a usage error, and every CLI flag and serving option is
declared in one place — which the command lines CI and the verify skill
run must still parse against.
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
    """The packed side is the term view's own method, and it is the only
    one in src: the text oracle and PR's set intersection live in
    ``tests/reference.py``, and no switch picks another path."""
    import inspect

    from repro.qa import QAPipeline, paragraph_scoring
    from repro.retrieval import IndexedCorpus
    from repro.retrieval.boolean import BooleanRetriever
    from repro.retrieval.inverted_index import ParagraphTerms

    assert callable(ParagraphTerms.keyword_positions)
    assert not hasattr(paragraph_scoring, "keyword_positions")
    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in ("keyword_positions_from_" "terms", "keyword_positions_from_" "ids"):
        assert not hasattr(paragraph_scoring, retired)
        assert retired not in source, retired
    for retired in (
        "positions" "_of", "def ids" "_at", "_evaluate" "_sets",
        "_Conjunction" "Cache", "_intersect" "_sorted", "Retrieval" "Plan",
        "_keyword" "_paragraphs", "def _conjunction", "def _evaluate",
    ):
        assert retired not in source, retired
    for api in (
        QAPipeline, IndexedCorpus, IndexedCorpus.reconfigured, BooleanRetriever
    ):
        params = inspect.signature(api).parameters
        for switch in ("use_term" "_index", "gallop" "ing", "conjunction" "_cache"):
            assert switch not in params, (api, switch)


def test_selector_has_one_mode(shared_indexed_corpus, shared_pipeline):
    """The one mode left is the paper's broadcast: no selector, no sketch."""
    from repro.qa import QAPipeline
    from repro.retrieval import indexes_to_payload

    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in (
        "Collection" "Selector", "Collection" "Sketch", "Selection" "Decision",
        "sketch" "_of", "resolve_" "collections", "last_" "decision",
        "retrieval." "selector", "PR-" "select", "SELECTION_" "MODES",
        "Pruned" "Work",
    ):
        assert retired not in source, retired
    assert not (ROOT / "src" / "repro" / "retrieval" / "selection.py").exists()
    with pytest.raises(TypeError):
        QAPipeline(shared_indexed_corpus, shared_pipeline.recognizer, selector=None)
    payload = indexes_to_payload(shared_indexed_corpus.indexes)
    for entry in payload["collections"]:
        assert set(entry) == {"collection_id", "buffers"}


def test_a_batch_is_a_loop_over_answer():
    """``answer_batch`` runs ``answer`` per distinct question: no cache
    trace, no replay, no batch-scoped posting map, no second call path
    in the worker, and no pass-through knobs on ``IndexedCorpus``."""
    import inspect

    from repro.retrieval import IndexedCorpus

    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in (
        "Shared" "Postings", "begin" "_batch", "end" "_batch",
        "replay" "_rounds", "_fetch" "_postings", "round" "_trace",
        "start" "_trace", "stop" "_trace", "def replay" "(",
        "execute" "_batch", "_Question" "Record", "postings" "_fetches",
        "postings" "_shared", "pr_wall" "_s", "len(unit) == " "1",
    ):
        assert retired not in source, retired
    assert not (ROOT / "src" / "repro" / "qa" / "batch.py").exists()
    params = inspect.signature(IndexedCorpus).parameters
    assert list(params) == ["corpus", "indexes"]


def test_simulated_routing_is_an_input_not_a_switch():
    """The simulator routes PR only by the explicit collection ids its
    partitioners hand out: no routed profiles, probe cost or section."""
    from repro.corpus import CorpusConfig
    from repro.experiments.context import build_serving_context
    from repro.experiments.runner import EXPERIMENTS
    from repro.qa.profiles import SyntheticProfileParams

    for retired in ("selection_" "probe_cpu_s", "collection_" "selection"):
        with pytest.raises(TypeError):
            SystemConfig(**{retired: 0})
    with pytest.raises(TypeError):
        build_serving_context(CorpusConfig(), selection="off")
    with pytest.raises(TypeError):
        SyntheticProfileParams(**{"selected_" "fraction": 0.5})
    assert "ext-" "selection" not in EXPERIMENTS


def test_one_eq23_section():
    """``ext-scale`` is the one Eq 23 section: one ladder on the default
    plane, whose only knobs are the sizes, the seeds and the pool."""
    import inspect

    from repro.experiments import scale
    from repro.experiments.runner import EXPERIMENTS

    assert "ext-model" "-validation" not in EXPERIMENTS
    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in (
        "run_inter" "_validation", "format_inter" "_validation", "Speedup" "Point",
        "DEFAULT_NODE" "_COUNTS", "_ext_model" "_validation",
    ):
        assert retired not in source, retired
    assert list(inspect.signature(scale.run_scale).parameters) == [
        "node_counts", "seeds", "jobs",
    ]
    fields = {f.name for f in dataclasses.fields(scale.ScaleCell)}
    assert not fields & {"ap_strategy", "monitor_shards", "events"}
    assert "auto_shard_count" not in inspect.getsource(scale)


@pytest.mark.parametrize(
    "bad, reason",
    [
        (["--nodes", "0"], "need at least one node"),
        (["--nodes", "2", "--stagger", "-1"], "stagger_s must be non-negative"),
    ],
)
def test_simulate_rejects_bad_input_as_a_usage_error(bad, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", *bad])
    assert str(exc.value) == f"simulate: invalid configuration: {reason}"


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


def test_accepted_paragraphs_are_columns_only():
    import repro.qa

    retired = "Paragraph" "Profile"
    assert retired not in repro.qa.__all__
    assert not hasattr(repro.qa, retired)
    holders = [
        path for path in (ROOT / "src").rglob("*.py")
        if retired in path.read_text(encoding="utf-8")
    ]
    assert holders == []


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


def test_each_evaluation_protocol_is_written_once():
    """Section 6.1 is ``run_high_load`` and Section 6.2 ``run_one_at_a_time``:
    nothing outside ``workload/`` draws the high-load ingredients itself."""
    from repro.core import ClusterNode, MonitoringSystem, QuestionDispatcher
    from repro.simulation import Environment, Network

    src = ROOT / "src" / "repro"
    for path in src.rglob("*.py"):
        rel = path.relative_to(src).as_posix()
        if rel.startswith("workload/"):
            continue
        text = path.read_text()
        for call in ("trec_mix_profiles(", "staggered_arrivals("):
            assert call not in text, (rel, call)
    with pytest.raises(ImportError):
        __import__("repro.experiments." "validation_exp")
    source = "".join(p.read_text() for p in src.rglob("*.py"))
    for retired in ("resubmit_" "failed", "submit_" "at", "backoff_" "delay"):
        assert retired not in source, retired
    env = Environment()
    mon = MonitoringSystem(env, Network(env), [ClusterNode(env, 0)])
    with pytest.raises(TypeError):
        QuestionDispatcher(mon, max_attempts=3)
    with pytest.raises(TypeError):
        SystemConfig(**{"question_retry_" "backoff_s": 1.0})


def test_workers_keep_no_metrics_plane():
    """The reply record is all the server hears: no worker registry, no
    snapshot on the wire, no merge code, no ``metrics=`` to pass one in."""
    from repro.corpus import CorpusConfig
    from repro.experiments.context import build_serving_context
    from repro.observability.metrics import MetricsRegistry
    from repro.qa import QAPipeline
    from repro.serving.workers import InlineExecutor, ProcessWorkerPool

    with pytest.raises(TypeError):
        QAPipeline(None, None, metrics=MetricsRegistry())
    with pytest.raises(TypeError):
        build_serving_context(CorpusConfig(), metrics=MetricsRegistry())
    for executor in (ProcessWorkerPool(CorpusConfig(), 1), InlineExecutor(None)):
        assert not hasattr(executor, "worker_" "snapshots")
    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in (
        "worker_" "snapshots", "aggregated_" "metrics", "merge_" "snapshot",
        "state_" "dict", "merge_" "state", "gauge_" "label", "_SNAPSHOT_" "EVERY",
    ):
        assert retired not in source, retired


def test_each_outcome_is_recorded_once_in_one_envelope():
    """One outcome record and one JSONL envelope: the second writer, the
    second validator, the per-outcome monitor calls, the counters that
    restated the ledger and the amortized batch charge are gone."""
    from repro.qa.question import BatchStats
    from repro.serving.slo import SLOMonitor

    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in (
        "write_" "jsonl", "validate_" "jsonl_line", "record_" "answered",
        "record_" "shed", "SERVING_" "SUBMITTED", "SERVING_" "ANSWERED",
        "SERVING_" "SHED", "SERVING_" "DRAINED", "amortized_" "postings",
        '"serving.' 'submitted"', '"serving.' 'answered"', '"serving.' 'shed',
        '"serving.' 'drained"',
    ):
        assert retired not in source, retired
    assert not hasattr(SLOMonitor, "record_" "answered")
    assert not hasattr(BatchStats, "postings_" "scanned")


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
    assert len(serve) == 10
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


def test_one_latency_promise_at_the_front_door(capsys):
    """The admission deadline is the only latency budget: no token bucket,
    per-question deadline, opt-in exception or second SLO config."""
    from repro.serving import AdmissionConfig, ServerConfig

    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["serve", "--rate-" "limit", "5"])
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(TypeError):
        ServerConfig(**{"sl" "o": None})
    with pytest.raises(TypeError):
        AdmissionConfig(**{"rate_limit" "_qps": 1.0})
    source = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    for retired in (
        "Token" "Bucket", "Overload" "Error", "SLO" "Config", "raise_on" "_shed",
        "RATE_" "LIMITED", "rate_" "burst", "deadline_" "budget_s", "slow_" "outlier",
        "_nearest" "_rank",
    ):
        assert retired not in source, retired


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
