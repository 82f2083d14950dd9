"""BENCHMARK.json and the emitted result line, against the contract."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import harness

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SPEC = harness.load_spec()


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((harness.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_and_metrics_are_well_formed():
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for x in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for x in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(x["name"]), x["name"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")


def test_setup_metric_has_the_largest_bound():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(args, cwd=harness.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["sim_scale128", "serve_open_zipf"])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = _run(["--smoke", "--workload", workload, "--seed", "3", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    result = _result(out.stdout)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sim_paper16", "serve_closed_uniq"])
def test_traced_run_emits_every_per_layer_metric_and_writes_spans(workload):
    out = _run(["--smoke", "--workload", workload, "--seed", "3", "--trace", "1"])
    assert out.returncode == 0, out.stdout + out.stderr
    result = _result(out.stdout)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    spans = json.loads((harness.OUT_DIR / f"trace_{workload}.json").read_text())
    assert spans["spans"] and set(spans["spans"][0]) == {
        "name", "start", "end", "parent", "qid",
    }


def test_every_per_layer_metric_is_produced_by_some_workload():
    produced = set()
    for workload in ("sim_scale128", "serve_open_zipf"):
        out = _run(["--smoke", "--workload", workload, "--trace", "1"])
        assert out.returncode == 0, out.stdout + out.stderr
        shown = [ln.split()[0] for ln in out.stdout.splitlines() if "is better)" in ln]
        produced.update(shown)
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_simulated_numbers_follow_the_seed_and_nothing_else():
    def simulated(seed):
        out = _run(["--smoke", "--workload", "sim_paper16", "--seed", str(seed)])
        metrics = _result(out.stdout)["metrics"]
        return metrics["lat_p50_ms"]["value"], metrics["lat_p95_ms"]["value"]

    assert simulated(4) == simulated(4)
    assert simulated(4) != simulated(5)


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    out = _run(["--workload", "sim_paper16", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
