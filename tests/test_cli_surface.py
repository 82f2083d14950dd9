"""The surface that is left after the deletion PRs.

The CLI's documented command list is its registered subcommands, the
repository root holds no benchmark artifact beside ``BENCHMARK.json``'s
own, the simulator's queue is not configurable, keyword positions have
one kernel per side of the oracle, collection selection has one mode and
no on/off switch, the span stream is the only trace store, and the
pre-record extension experiments took their switches with them.
"""

import pathlib
import re

import pytest

from repro import cli
from repro.core import SystemConfig


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
    root = pathlib.Path(__file__).resolve().parent.parent
    assert not list(root.glob("BENCH_*.json"))


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
    root = pathlib.Path(__file__).resolve().parent.parent
    assert not (root / "benchmarks").exists()
