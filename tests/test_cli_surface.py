"""One event queue, one bench plane: the surface that is left.

The CLI's documented command list is its registered subcommands, the
repository root holds no benchmark artifact beside ``BENCHMARK.json``'s
own, and the simulator's queue is not configurable.
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
