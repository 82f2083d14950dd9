"""The benchmark of record: one command, every metric by name.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke            # tiny sizes, correctness gates only
    python3 bench/run.py --selfcheck        # A/A: two sets of the same code

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any correctness gate is breached.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import typing as t

import harness

sys.path.insert(0, str(harness.SRC_DIR))

SERVE_WORKLOADS = ("serve_closed_uniq", "serve_open_zipf")


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> tuple[bool, str]:
    """Run one workload; returns (correct, the contract's result line)."""
    spec = harness.load_spec()
    if workload in SERVE_WORKLOADS:
        import serve as module
    else:
        import sim as module

    envelope = harness.envelope_start()
    envelope.update(workload=workload, seed=seed, seconds=seconds, smoke=smoke)
    if trace:
        result = module.trace(workload, seed, smoke)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(result["layers"]) - set(units))
        if unknown:
            raise SystemExit(f"layer metrics missing from BENCHMARK.json: {unknown}")
        # Every per-layer name on every workload; a layer the workload
        # does not run reads 0.
        metrics = {
            name: {"value": result["layers"].get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        }
        shown = {k: v for k, v in metrics.items() if k in result["layers"]}
    else:
        result = module.run(workload, seed, seconds, smoke)
        metrics = shown = harness.summarize(
            spec, result["segments"], result["raw_segments"], result["run_level"]
        )
        envelope.update(result["info"])

    correct = result["failed"] == 0 and all(result["gates"].values())
    notes = list(result["notes"])
    notes.append(f"attempted {result['attempted']}, failed {result['failed']}")
    notes += [
        f"gate {'ok    ' if ok else 'BREACH'} {name}"
        for name, ok in result["gates"].items()
    ]
    harness.print_report(spec, workload, shown, notes)

    envelope["loadavg_end"] = list(os.getloadavg())
    line = harness.contract_line(
        correct, result["attempted"], result["failed"], metrics
    )
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    kind = "trace" if trace else "result"
    (harness.OUT_DIR / f"{kind}_{workload}.envelope.json").write_text(
        json.dumps(
            {"envelope": envelope, "gates": result["gates"], "metrics": metrics},
            indent=1,
        )
        + "\n"
    )
    return correct, line


# -- A/A self-check ----------------------------------------------------------------
def _child_run(workload: str, seed: int, seconds: float) -> dict[str, t.Any]:
    """One untraced run in a fresh process, as the driver makes them."""
    out = subprocess.run(
        [
            sys.executable, str(harness.BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def selfcheck(workloads: t.Sequence[str], seed: int, seconds: float, runs: int) -> int:
    """Two sets of ``runs`` runs of the same code; compare their medians.

    The rule is the driver's: for every end-to-end metric the second
    set's median may not be worse than the first's by more than the
    metric's bound, and (from four runs a set) the quartile spread of a
    set, as a share of its median, must stay within it.
    """
    spec = harness.load_spec()
    breaches = 0
    raw: dict[str, list[dict[str, list[float]]]] = {}
    for workload in workloads:
        sets: list[dict[str, list[float]]] = raw.setdefault(workload, [])
        for which in range(2):
            values: dict[str, list[float]] = {}
            for i in range(runs):
                res = _child_run(workload, seed + which * runs + i, seconds)
                if not res["correct"]:
                    raise SystemExit(f"{workload}: run reported incorrect output")
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print(f"== {workload}: A/A over 2 x {runs} run(s) ==")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (statistics.median(s[name]) for s in sets)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            line = (
                f"{name:<14} A {a:>12.5g}  B {b:>12.5g} {m['unit']:<4} "
                f"worse by {worse:+.2%} (bound {bound:.0%})"
            )
            bad = worse > bound
            if runs >= 4:
                spreads = [harness.quartile_spread(s[name]) for s in sets]
                line += "  quartile spread " + " / ".join(f"{x:.2%}" for x in spreads)
                bad = bad or (name != "setup_s" and max(spreads) > bound)
            print(line + ("  BREACH" if bad else ""))
            breaches += bad
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (harness.OUT_DIR / "selfcheck.json").write_text(json.dumps(raw, indent=1) + "\n")
    print(f"selfcheck: {breaches} breach(es); every value in bench/out/selfcheck.json")
    return 1 if breaches else 0


def main(argv: t.Sequence[str] | None = None) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="seconds for cold set-ups and segments together; fixes K (min 2)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: the per-layer ledger instead of the end-to-end metrics",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=1, help="runs per selfcheck set")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    if args.selfcheck:
        return selfcheck(workloads, args.seed, args.seconds, args.runs)
    seconds = 0.0 if args.smoke else args.seconds
    all_correct = True
    lines = []
    for workload in workloads:
        correct, line = run_workload(
            workload, args.seed, seconds, bool(args.trace), args.smoke
        )
        all_correct = all_correct and correct
        lines.append(line)
    print("\n".join(lines))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
