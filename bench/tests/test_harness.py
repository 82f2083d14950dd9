"""Estimator, host-speed calibration, /proc readers, span recorder."""

import os
import statistics
import time

import pytest

import harness
from harness import Piece


def test_best_segment_follows_direction():
    values = [146.0, 155.0, 131.0]
    assert harness.best(values, "higher") == 155.0
    assert harness.best(values, "lower") == 131.0


def test_best_segment_rejects_bad_input():
    with pytest.raises(ValueError):
        harness.best([], "lower")
    with pytest.raises(ValueError):
        harness.best([1.0], "sideways")


def test_at_reference_corrects_each_slice_by_its_own_factor():
    # The second slice met a host twice as slow.
    segment = [Piece(wall_s=2.0, cpu_s=1.0, factor=1.0), Piece(3.0, 2.0, 2.0)]
    assert harness.at_reference(segment, "wall_s") == pytest.approx(2.0 + 1.5)
    assert harness.at_reference(segment, "cpu_s") == pytest.approx(1.0 + 1.0)


def test_latencies_at_reference_keep_stream_order():
    segment = [Piece(0, 0, 1.0, [0.010, 0.030]), Piece(0, 0, 2.0, [0.040])]
    assert harness.latencies_at_reference(segment) == pytest.approx(
        [0.010, 0.030, 0.020]
    )


def test_summarize_takes_best_segment_per_metric_and_shows_the_raw_ones():
    spec = {
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        ]
    }
    at_reference = [
        {"qps": 100.0, "lat_p50_ms": 12.0},
        {"qps": 120.0, "lat_p50_ms": 13.0},
    ]
    raw = [{"qps": 80.0, "lat_p50_ms": 15.0}, {"qps": 110.0, "lat_p50_ms": 14.0}]
    out = harness.summarize(spec, at_reference, raw, {"setup_s": 3.5})
    assert out["setup_s"] == {"value": 3.5, "unit": "s"}
    assert out["qps"]["value"] == 120.0
    assert out["lat_p50_ms"]["value"] == 12.0
    assert out["qps"]["segments"] == [80.0, 110.0]


def test_host_factor_is_the_kernel_time_over_the_reference():
    factor = harness.host_factor(passes=3)
    start = time.perf_counter()
    harness._kernel()
    one_pass = (time.perf_counter() - start) / harness.REFERENCE_KERNEL_S
    assert 0.2 < factor < 20
    assert factor == pytest.approx(one_pass, rel=1.0)


def test_planned_segments_follow_seconds_not_the_clock():
    # 24 s, two 4 s set-ups, 4 s segments: four segments, on any host.
    assert harness.planned_segments(24.0, 8.0, 4.0) == 4
    assert harness.planned_segments(24.0, 2.1, 7.0) == 3
    # Never fewer than two: the estimator needs a repetition.
    assert harness.planned_segments(0.0, 8.0, 4.0) == 2


def test_spread_is_range_over_median():
    assert harness.spread([90.0, 100.0, 110.0]) == pytest.approx(0.2)
    assert harness.spread([5.0, 5.0]) == 0.0


def test_quartile_spread_matches_the_drivers_rule():
    values = [float(v) for v in range(1, 11)]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert harness.quartile_spread(values) == pytest.approx((q3 - q1) / mid)


def test_stat_parser_survives_hostile_command_names():
    tck = os.sysconf("SC_CLK_TCK")
    # pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
    # majflt cmajflt utime stime ...
    line = "42 (a b) c) S 1 42 42 0 -1 4194560 10 0 0 0 250 50 0 0 20 0 1 0"
    assert harness.parse_stat_cpu_s(line) == pytest.approx(300 / tck)


def test_status_parser_reads_kb_fields():
    text = "Name:\tpython3\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
    assert harness.parse_status_kb(text, "VmHWM") == 123456
    with pytest.raises(KeyError):
        harness.parse_status_kb(text, "VmSwap")


def test_proc_readers_see_this_process():
    before = harness.proc_cpu_s(os.getpid())
    total = 0
    while harness.proc_cpu_s(os.getpid()) - before < 0.05:
        total += sum(i * i for i in range(20000))
    assert harness.proc_cpu_s(os.getpid()) > before
    assert harness.proc_peak_rss_mb(os.getpid()) > 5.0
    assert harness.proc_peak_rss_mb("self") > 5.0


def test_span_self_time_subtracts_children():
    rec = harness.SpanRecorder()
    rec.spans = [
        {"name": "answer", "start": 0.0, "end": 10.0, "parent": -1, "qid": 1},
        {"name": "pr", "start": 1.0, "end": 4.0, "parent": 0, "qid": 1},
        {"name": "ap", "start": 4.0, "end": 9.0, "parent": 0, "qid": 1},
    ]
    assert rec.self_times() == {"answer": 2.0, "pr": 3.0, "ap": 5.0}
    assert rec.durations("pr") == [3.0]


def test_span_context_manager_nests_by_call_order(tmp_path):
    rec = harness.SpanRecorder()
    with rec.span("outer", qid=7):
        with rec.span("inner", qid=7):
            pass
    rec.add("elsewhere", 1.0, 2.0, qid=8)
    assert [s["parent"] for s in rec.spans] == [-1, 0, -1]
    assert rec.spans[0]["end"] >= rec.spans[1]["end"] >= rec.spans[1]["start"]
    rec.write(tmp_path / "out" / "trace.json")
    assert (tmp_path / "out" / "trace.json").stat().st_size > 0
