"""The two simulator workloads: ``sim_paper16`` and ``sim_scale128``.

Both drive ``DistributedQASystem.run_workload`` with inputs generated from
the seed; they differ in how the same simulator is used (load per node,
cluster size, monitor shards), not in which code runs.  A segment is the
same list of sub-runs every time, so segments differ only by host noise
and every simulated number must repeat bit for bit.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import statistics
import time
import typing as t
from dataclasses import dataclass

import numpy as np

from repro.core import (
    DistributedQASystem,
    PartitioningStrategy,
    Strategy,
    SystemConfig,
    TaskPolicy,
)
from repro.core.monitor import auto_shard_count
from repro.model import ModelParameters, system_speedup
from repro.observability.attribution import attribute_workload
from repro.workload import staggered_arrivals, trec_mix_profiles
from repro.workload.metrics import percentile

import harness


@dataclass(frozen=True)
class SimSpec:
    n_nodes: int
    #: Questions of one sub-run: one ``run_workload`` call, one slice.
    questions: int
    #: Sub-runs simulated back to back in one segment.
    sub_runs: int
    #: Seconds one segment takes here at the host's usual speed,
    #: calibration included; with ``--seconds`` it fixes K.
    segment_s: float

    @property
    def n_questions(self) -> int:
        return self.questions * self.sub_runs


SPECS = {
    # Section 6.1: 8N questions staggered 0-2 s on 16 nodes (overload:
    # FIFO-of-3 queueing, fair-share contention, dispatcher migrations).
    "sim_paper16": SimSpec(n_nodes=16, questions=128, sub_runs=8, segment_s=5.5),
    # Weak-scaling cell of `repro scale` (128 nodes, 512 questions, 11
    # monitor shards, little per-node queueing), submitted as four batches
    # of 128 so that each can be timed and repeated on its own; the
    # arrival rate, not the batch size, sets how many are in flight.
    "sim_scale128": SimSpec(n_nodes=128, questions=128, sub_runs=4, segment_s=7.0),
}
SMOKE_SPECS = {
    "sim_paper16": SimSpec(n_nodes=4, questions=32, sub_runs=2, segment_s=0.3),
    "sim_scale128": SimSpec(n_nodes=16, questions=32, sub_runs=2, segment_s=0.5),
}

#: Cold set-ups per run, and the seconds one takes here.
COLD_SETUPS = 3
SETUP_NOMINAL_S = 0.7

Inputs = list[tuple[list, list[float], SystemConfig]]


def spec_for(workload: str, smoke: bool) -> SimSpec:
    return (SMOKE_SPECS if smoke else SPECS)[workload]


def make_inputs(spec: SimSpec, seed: int, observe: bool = False) -> Inputs:
    """Profiles, arrivals and system configuration of each sub-run.

    The body of work is fixed: sub-run ``j`` always simulates the same
    questions and the same arrival instants (the paper's "same questions
    and the same startup sequence for all tests").  The seed decides
    which question arrives at which instant, so runs with different seeds
    do the same work in another order and their simulated latencies stay
    within a few percent of each other.

    No ``queue_impl`` and no ``monitor_shards=0`` is passed, so the
    workloads stay runnable when those switches are deleted.
    """
    inputs: Inputs = []
    for j in range(spec.sub_runs):
        profiles = trec_mix_profiles(spec.questions, seed=j)
        order = np.random.default_rng([seed, j]).permutation(spec.questions)
        config = SystemConfig(
            n_nodes=spec.n_nodes,
            strategy=Strategy.DQA,
            seed=seed * 1000 + j,
            monitor_shards=auto_shard_count(spec.n_nodes),
            policy=TaskPolicy(ap_strategy=PartitioningStrategy.RECV),
            collect_metrics=observe,
            trace=observe,
        )
        inputs.append(
            (
                [profiles[i] for i in order],
                staggered_arrivals(spec.questions, 2.0, seed=j),
                config,
            )
        )
    return inputs


def build_systems(inputs: Inputs) -> list[DistributedQASystem]:
    return [DistributedQASystem(config) for _, _, config in inputs]


@dataclass
class Segment:
    pieces: list[harness.Piece]
    reports: list
    systems: list[DistributedQASystem]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.pieces)

    @property
    def response_times(self) -> list[float]:
        return [r.response_time for rep in self.reports for r in rep.results]

    def fingerprint(self) -> tuple:
        """Every simulated number that must not depend on the host."""
        return tuple(
            (
                rep.makespan_s,
                rep.migrations_qa,
                rep.migrations_pr,
                rep.migrations_ap,
                tuple(r.response_time for r in rep.results),
            )
            for rep in self.reports
        )


def run_segment(inputs: Inputs, profiler: cProfile.Profile | None = None) -> Segment:
    """Simulate every sub-run; only ``run_workload`` is on the clock.

    Garbage of the previous sub-run is collected before the clock starts,
    so every repetition of a sub-run meets the same collector state.
    """
    systems = build_systems(inputs)
    reports = []
    pieces = []
    gc.collect()
    factor = harness.host_factor()
    for system, (profiles, arrivals, _) in zip(systems, inputs):
        w0, c0 = time.perf_counter(), time.process_time()
        if profiler is not None:
            profiler.enable()
        reports.append(system.run_workload(profiles, arrivals))
        if profiler is not None:
            profiler.disable()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        gc.collect()
        before, factor = factor, harness.host_factor()
        pieces.append(harness.Piece(wall, cpu, (before + factor) / 2))
    return Segment(pieces, reports, systems)


def count_failed(seg: Segment) -> int:
    """A simulated question fails if lost or unaccounted."""
    failed = 0
    for rep in seg.reports:
        failed += rep.n_lost + (rep.n_admitted - len(rep.results))
        if not rep.accounted:
            failed = max(failed, 1)
    return failed


def run(workload: str, seed: int, seconds: float, smoke: bool) -> dict[str, t.Any]:
    """The untraced run: cold set-ups, then identical segments."""
    spec = spec_for(workload, smoke)
    setup_samples, setup_raw, _ = harness.cold_setups(
        ["sim", workload, str(int(smoke)), str(seed)],
        1 if smoke else COLD_SETUPS,
        workload,
    )
    inputs = make_inputs(spec, seed)
    n_q = spec.n_questions
    pieces: list[list[harness.Piece]] = []
    prints = set()
    failed = 0
    lat: list[float] = []
    # No separate warm-up: the first segment is one of the K, and the
    # best of K discards what it paid for.
    k = harness.planned_segments(
        seconds, COLD_SETUPS * SETUP_NOMINAL_S, spec.segment_s
    )
    for _ in range(k):
        seg = run_segment(inputs)
        pieces.append(seg.pieces)
        prints.add(seg.fingerprint())
        failed += count_failed(seg)
        lat = seg.response_times
        del seg  # keeps peak memory independent of K
    lat_n = len(lat)
    # Simulated seconds, reported in ms like the served latencies; exact,
    # so every segment reads the same.
    simulated = {
        "lat_p50_ms": 1e3 * percentile(lat, 0.50),
        "lat_p95_ms": 1e3 * percentile(lat, 0.95),
    }

    def host_time(wall_s: float, cpu_s: float) -> dict[str, float]:
        return {"qps": n_q / wall_s, "cpu_ms_per_q": 1e3 * cpu_s / n_q, **simulated}

    return {
        "segments": [
            host_time(
                harness.at_reference(seg, "wall_s"), harness.at_reference(seg, "cpu_s")
            )
            for seg in pieces
        ],
        "raw_segments": [
            host_time(sum(p.wall_s for p in seg), sum(p.cpu_s for p in seg))
            for seg in pieces
        ],
        "run_level": {
            "setup_s": statistics.median(setup_samples),
            "rss_mb": harness.proc_peak_rss_mb("self"),
        },
        "attempted": n_q * len(pieces),
        "failed": failed,
        "gates": {"simulated stats identical across segments": len(prints) == 1},
        "notes": [
            f"K={len(pieces)} segments of {n_q} simulated questions "
            f"({spec.sub_runs} sub-run(s) of {spec.questions} on {spec.n_nodes} nodes)",
            f"lat_p50_ms/lat_p95_ms are simulated time over {lat_n} samples "
            f"({lat_n - int(0.95 * lat_n)} beyond p95)",
            harness.setup_note(setup_samples, setup_raw),
        ],
        "info": {
            "k": len(pieces),
            "segment_questions": n_q,
            "slices": [[p.as_measured() for p in seg] for seg in pieces],
            "setup_raw_s": setup_raw,
        },
    }


# -- traced run: the simulator's per-layer ledger ------------------------------------
#: cProfile file -> ledger line.  Everything else (builtins, numpy, the
#: system wiring, observability) lands in ``other_us_per_q``.
_MODULE_OF_FILE = {
    "simulation/engine.py": "simulation.engine_us_per_q",
    "simulation/schedkey.py": "simulation.engine_us_per_q",
    "simulation/calendar.py": "simulation.engine_us_per_q",
    "simulation/resources.py": "simulation.resources_us_per_q",
    "simulation/events.py": "simulation.eventobj_us_per_q",
    "simulation/network.py": "simulation.network_us_per_q",
    "simulation/statistics.py": "simulation.statistics_us_per_q",
    "core/monitor.py": "core.monitor_us_per_q",
    "core/qa_task.py": "core.qa_task_us_per_q",
    "core/node.py": "core.node_us_per_q",
    "core/load.py": "core.load_us_per_q",
    "core/dispatcher.py": "core.dispatcher_us_per_q",
    "core/partitioning.py": "core.partitioning_us_per_q",
    "core/meta_scheduler.py": "core.meta_scheduler_us_per_q",
}


def profile_by_module(profiler: cProfile.Profile) -> tuple[dict[str, float], float]:
    """Self seconds per ledger line, and their total."""
    out = {name: 0.0 for name in _MODULE_OF_FILE.values()}
    out["other_us_per_q"] = 0.0
    total = 0.0
    for (filename, _line, _fn), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        key = "/".join(filename.replace("\\", "/").split("/")[-2:])
        out[_MODULE_OF_FILE.get(key, "other_us_per_q")] += tottime
        total += tottime
    return out, total


def events_scheduled(seg: Segment) -> int:
    # The simulator has no public event counter; `repro scale` and
    # `repro simbench` read the scheduler's sequence the same way.
    return sum(next(system.env._seq) for system in seg.systems)


def trace(workload: str, seed: int, smoke: bool) -> dict[str, t.Any]:
    """Layer metrics of one workload, from harness-side spans and profiles.

    Layer timings are host time as measured; only the two overhead
    ratios, which compare segments run at different moments, are taken at
    the reference host speed.  The profiled and the observed segment
    simulate the first half of the sub-runs only, and are compared with
    the plain timing of the same sub-runs.
    """
    spec = spec_for(workload, smoke)
    n_q = spec.n_questions
    rec = harness.SpanRecorder()
    layers: dict[str, float] = {}

    with rec.span("workload.generate"):
        inputs = make_inputs(spec, seed)
    layers["workload.profile_gen_us_per_q"] = (
        1e6 * rec.durations("workload.generate")[0] / n_q
    )

    with rec.span("simulation.run_plain"):
        plain = run_segment(inputs)
    events = events_scheduled(plain)
    layers["simulation.events_per_q"] = events / n_q
    layers["simulation.host_us_per_event"] = 1e6 * plain.wall_s / events

    half = max(1, spec.sub_runs // 2)
    half_q = half * spec.questions
    plain_half_s = harness.at_reference(plain.pieces[:half], "wall_s")
    profiler = cProfile.Profile()
    with rec.span("simulation.run_profiled"):
        profiled = run_segment(inputs[:half], profiler)
    by_module, total = profile_by_module(profiler)
    for name, sec in by_module.items():
        layers[name] = 1e6 * sec / half_q
    profiled_s = harness.at_reference(profiled.pieces, "wall_s")
    layers["simulation.profile_overhead_x"] = profiled_s / plain_half_s

    observed_inputs = make_inputs(spec, seed, observe=True)[:half]
    with rec.span("simulation.run_observed"):
        observed = run_segment(observed_inputs)
    observed_s = harness.at_reference(observed.pieces, "wall_s")
    layers["observability.sim_overhead_frac"] = (observed_s - plain_half_s) / plain_half_s

    # Modelled design: simulated time, exact for a seed.
    reports = plain.reports
    n_sub = len(reports)
    layers["core.migrations_qa"] = sum(r.migrations_qa for r in reports)
    layers["core.migrations_pr"] = sum(r.migrations_pr for r in reports)
    layers["core.migrations_ap"] = sum(r.migrations_ap for r in reports)
    layers["core.throughput_qpm"] = sum(r.throughput_qpm for r in reports) / n_sub
    for module in ("QP", "PR", "PS", "PO", "AP"):
        layers[f"core.module_s.{module.lower()}"] = (
            sum(r.mean_module_times()[module] * r.n_questions for r in reports) / n_q
        )
    totals: dict[str, float] = {}
    wall_total = 0.0
    for system, report, (_, _, config) in zip(
        observed.systems, observed.reports, observed_inputs
    ):
        fold = attribute_workload(system.spans, system.metrics, report, config)
        wall_total += fold.total_wall_s
        for cat, sec in fold.categories.items():
            totals[cat] = totals.get(cat, 0.0) + sec
    for cat, sec in totals.items():
        layers[f"attribution.{cat}_s"] = sec / half_q
    # The fold's root spans run from arrival, so the buckets sum to the
    # mean sojourn: response time plus the wait for one of a node's slots.
    mean_sojourn = (
        sum(r.sojourn_time for rep in observed.reports for r in rep.results) / half_q
    )

    def same_numbers(part: Segment) -> bool:
        return part.fingerprint() == plain.fingerprint()[: len(part.reports)]

    gates = {
        "module us sum to the profiled total": abs(sum(by_module.values()) - total)
        <= 1e-9 * max(total, 1.0),
        "attribution buckets sum to mean simulated sojourn": abs(
            sum(totals.values()) / half_q - mean_sojourn
        )
        <= 1e-9 * mean_sojourn
        and abs(wall_total / half_q - mean_sojourn) <= 1e-9 * mean_sojourn,
        "observed run simulates the same numbers": same_numbers(observed),
        "profiled run simulates the same numbers": same_numbers(profiled),
    }

    if workload == "sim_scale128":
        # Table 10's discipline: fidelity beside speed.  Measured speedup
        # is against one node given its share of a batch, as `repro scale`.
        per_node = max(1, spec.questions // spec.n_nodes)
        base_spec = SimSpec(n_nodes=1, questions=per_node, sub_runs=1, segment_s=0.0)
        base = run_segment(make_inputs(base_spec, seed)).reports[0]
        measured = reports[0].throughput_qpm / base.throughput_qpm
        predicted = system_speedup(ModelParameters(), spec.n_nodes)
        layers["model.eq23_rel_err"] = abs(measured - predicted) / predicted

    rec.write(harness.OUT_DIR / f"trace_{workload}.json")
    return {
        "layers": layers,
        "attempted": n_q + 2 * half_q,
        "failed": count_failed(plain) + count_failed(profiled) + count_failed(observed),
        "gates": gates,
        "notes": [
            f"profiled total {1e6 * total / half_q:.1f} us/q over {half_q} questions; "
            "cProfile inflates Python-level calls, read shares not absolutes",
            "tracing overhead is the observed-vs-plain difference at reference "
            f"host speed ({observed_s:.2f} s vs {plain_half_s:.2f} s over {half} sub-run(s))",
            "timings are host time as measured; host factor during the plain "
            "segment " + " ".join(f"{p.factor:.2f}" for p in plain.pieces),
        ],
    }
