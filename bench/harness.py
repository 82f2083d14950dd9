"""Measurement plumbing shared by every workload of the benchmark of record.

Nothing here imports :mod:`repro`: the estimator, the host-speed
calibration, the ``/proc`` readers, the span recorder, the cold set-up
timer and the result printer are plain Python, so ``bench/tests`` can
exercise them without a corpus.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import heapq
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import typing as t
from dataclasses import dataclass, field

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"


def load_spec() -> dict[str, t.Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- host-speed calibration --------------------------------------------------------
#: Seconds one kernel pass takes on this host while it is quiet.  Only the
#: ratio to it is used, so on another host it rescales every run alike.
REFERENCE_KERNEL_S = 0.0172


def _kernel() -> float:
    """One pass of fixed pure-Python work, none of it the program's.

    Half arithmetic in registers, half small objects through a heap and a
    dict: a neighbour that contends for the core slows the first, one
    that contends for cache and memory slows the second more, and the
    program (interpreter-bound, allocation-heavy) sits between the two.
    Measured against the simulator and the pipeline, the int loop alone
    under-corrects a slow phase (slope 1.1-1.35) and the object half
    alone over-corrects it (slope 0.6-0.7); together the slope is 0.9-1.1.
    """
    total = 0
    for i in range(150_000):
        total += i * i
    heap: list[tuple[float, int]] = []
    seen: dict[str, int] = {}
    x = 1
    for i in range(10_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x * 1e-9, i))
        key = "k%d" % (x & 1023)
        seen[key] = seen.get(key, 0) + 1
        if i & 3 == 3:
            total += heapq.heappop(heap)[1]
    return total + len(seen)


def host_factor(passes: int = 3) -> float:
    """How slow the host runs Python right now, as a multiple of the reference.

    On this shared host the same pure-Python work takes 10-80 % longer for
    seconds to minutes at a time (a neighbour on the core; the guest sees
    it as CPU time, not as steal).  A few kernel passes between the pieces
    of a workload sample that state next to the measurement; the median
    pass rejects a stall that hits the calibration alone.  The collector
    is off during a pass, so the program's heap cannot lengthen it.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(passes):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times) / REFERENCE_KERNEL_S


# -- estimator ---------------------------------------------------------------------
@dataclass
class Piece:
    """One slice of one segment, as measured.

    A segment is cut into slices so that the host factor can be sampled
    next to every part of it: ``factor`` is the mean of the calibration
    before and after the slice.
    """

    wall_s: float
    cpu_s: float
    factor: float
    #: Host-time latencies, one per question of the slice in stream order
    #: (empty on the simulator, whose latencies are simulated time).
    lat_s: list[float] = field(default_factory=list)

    def as_measured(self) -> dict[str, float]:
        """The envelope's record of this slice."""
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "factor": self.factor}


def at_reference(segment: t.Sequence[Piece], field_name: str) -> float:
    """A segment's total of one host-time field at the reference host speed.

    Each slice is divided by the host factor measured around it, so a
    segment that met a slow phase half-way is corrected half-way.
    """
    return sum(getattr(p, field_name) / p.factor for p in segment)


def latencies_at_reference(segment: t.Sequence[Piece]) -> list[float]:
    """Every latency of a segment at the reference host speed."""
    return [x / p.factor for p in segment for x in p.lat_s]


def best(values: t.Sequence[float], better: str) -> float:
    """A run's value for a metric: its best segment.

    The measured phase is K identical segments, so they differ only by
    host noise, and interference only ever slows a segment: the best one
    estimates the uncontended program (``timeit``'s rule).
    """
    if not values:
        raise ValueError("no segments measured")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    return max(values) if better == "higher" else min(values)


def planned_segments(
    seconds: float, setup_nominal_s: float, segment_nominal_s: float
) -> int:
    """How many segments ``--seconds`` buys, at least two.

    K comes from the nominal durations, not from the clock: the best of K
    improves as K grows, so a K that followed the host's speed would read
    a slow phase as slower still.  The nominal durations are this
    host's at its usual speed; on a quiet host the measured phase ends a
    little before ``seconds``, in a slow phase a little after.
    """
    return max(2, round((seconds - setup_nominal_s) / segment_nominal_s))


def spread(values: t.Sequence[float]) -> float:
    """Inter-segment spread: (max - min) as a share of the median."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def quartile_spread(values: t.Sequence[float]) -> float:
    """Run-to-run spread as the driver takes it: (Q3 - Q1) / median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


# -- /proc readers ---------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def parse_stat_cpu_s(stat_line: str) -> float:
    """user+sys CPU seconds from one ``/proc/<pid>/stat`` line.

    The command name (field 2) may hold spaces and parentheses, so the
    numeric fields are counted from the *last* ``)``.
    """
    fields = stat_line[stat_line.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])  # fields 14 and 15
    return (utime + stime) / _CLK_TCK


def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a live process."""
    return parse_stat_cpu_s(pathlib.Path(f"/proc/{pid}/stat").read_text())


def parse_status_kb(status_text: str, key: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


def proc_peak_rss_mb(pid: int | str) -> float:
    """Peak resident set (``VmHWM``) of a live process (or ``"self"``), in MB."""
    text = pathlib.Path(f"/proc/{pid}/status").read_text()
    return parse_status_kb(text, "VmHWM") / 1024.0


# -- spans -----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded by the harness around calls into a layer.

    A span is ``(name, start, end, parent, qid)``; ``parent`` is an index
    into :attr:`spans` (-1 for a root).  Spans nest by call order, so the
    recorder keeps a stack rather than asking callers for the parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, t.Any]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, qid: int = -1) -> t.Iterator[None]:
        idx = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else -1,
            "qid": qid,
        }
        self.spans.append(record)
        self._stack.append(idx)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, qid: int = -1) -> None:
        """Record a span whose ends were measured elsewhere (a worker)."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": -1, "qid": qid}
        )

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's children subtracted."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


# -- private scratch space ---------------------------------------------------------
def scratch_dir(label: str) -> pathlib.Path:
    """A private directory under ``bench/out`` removed when the run exits.

    Every ``REPRO_CACHE_DIR`` the benchmark hands the program lives here,
    so a run neither sees nor leaves artifacts of another.
    """
    base = OUT_DIR / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


# -- cold set-up -------------------------------------------------------------------
def cold_setup(
    child_args: t.Sequence[str], cache_dir: pathlib.Path
) -> tuple[float, dict[str, t.Any]]:
    """Time one cold set-up in a fresh child process.

    The clock runs from spawning the interpreter to the child's ``ready``
    line, so interpreter start and ``import repro`` are inside it.  The
    child then prints one JSON line of its own measurements and exits.
    """
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_child.py"), *child_args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout is not None  # for the type checker: stdout=PIPE above
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=120)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code}): {first!r}")
    return elapsed, json.loads(rest) if rest.strip() else {}


def cold_setups(
    child_args: t.Sequence[str], repeats: int, label: str
) -> tuple[list[float], list[float], pathlib.Path]:
    """Repeat :func:`cold_setup`, each against a fresh empty cache.

    Returns the seconds at reference host speed, the raw seconds, and the
    last cache directory (warm now: the measured phase reuses it).
    """
    at_reference, raw = [], []
    factor = host_factor(8)
    for _ in range(repeats):
        cache = scratch_dir(label)
        elapsed, _ = cold_setup(child_args, cache)
        before, factor = factor, host_factor(8)
        raw.append(elapsed)
        at_reference.append(elapsed / ((before + factor) / 2))
    return at_reference, raw, cache


# -- envelope and output -----------------------------------------------------------
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def envelope_start() -> dict[str, t.Any]:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


def summarize(
    spec: dict[str, t.Any],
    segments: t.Sequence[dict[str, float]],
    raw_segments: t.Sequence[dict[str, float]],
    run_level: dict[str, float],
) -> dict[str, dict[str, t.Any]]:
    """Fold per-segment values into the end-to-end metrics of one run.

    ``segments`` are at the reference host speed and give the value;
    ``raw_segments`` are the same segments as measured, shown beside it.
    ``run_level`` holds the metrics measured once per run rather than per
    segment (``setup_s``, ``rss_mb``), already reduced by their own rule.
    """
    out: dict[str, dict[str, t.Any]] = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in run_level:
            out[name] = {"value": run_level[name], "unit": m["unit"]}
            continue
        out[name] = {
            "value": best([seg[name] for seg in segments], m["better"]),
            "unit": m["unit"],
            "segments": [seg[name] for seg in raw_segments],
        }
    return out


def print_report(
    spec: dict[str, t.Any],
    workload: str,
    metrics: dict[str, dict[str, t.Any]],
    notes: t.Sequence[str],
) -> None:
    """Every metric by name with unit and direction, raw segments beside it."""
    direction = {
        m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    print(f"== {workload} ==")
    for name, m in metrics.items():
        line = (
            f"{name:<36} {m['value']:>14.6g} {m['unit']:<6} "
            f"({direction.get(name, '?')} is better)"
        )
        if "segments" in m:
            segs = " ".join(f"{v:.5g}" for v in m["segments"])
            line += f"  raw segments [{segs}] spread {spread(m['segments']):.1%}"
        print(line)
    for note in notes:
        print(f"   {note}")


def setup_note(at_reference: t.Sequence[float], raw: t.Sequence[float]) -> str:
    return (
        "setup_s is the median of "
        + " ".join(f"{s:.3f}" for s in at_reference)
        + " s at reference host speed (raw "
        + " ".join(f"{s:.3f}" for s in raw)
        + ")"
    )


def contract_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, dict[str, t.Any]]
) -> str:
    """The driver's result line: exactly four keys, value + unit per metric."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                k: {"value": float(v["value"]), "unit": v["unit"]}
                for k, v in metrics.items()
            },
        }
    )
