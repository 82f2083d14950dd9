"""The overload verdict on synthetic runs: a host slowdown is not queueing.

``_overload_check`` compares the overload run's accepted p99 with the
at-saturation one, each in units of its own run's mean service time.
"""

import pytest

from repro.serving.loadgen import _overload_check

SERVICE_S = 0.010  # calibrated mean service time


def run(label, load_factor, p99_s, service_mean_s, shed=0):
    return {
        "label": label,
        "load_factor": load_factor,
        "conservation_ok": True,
        "latency_s": {"p99_s": p99_s},
        "service_s": {"mean_s": service_mean_s},
        "ledger": {"shed": shed, "drained": 0},
    }


def check(over_p99_s, over_service_s):
    runs = [
        run("0.5x", 0.5, 1.5 * SERVICE_S, SERVICE_S),
        run("1x", 1.0, 2.0 * SERVICE_S, SERVICE_S),
        run("2x", 2.0, over_p99_s, over_service_s, shed=12),
    ]
    return _overload_check(runs, service_floor_s=SERVICE_S)


def test_bounded_overload_passes():
    out = check(over_p99_s=4.0 * SERVICE_S, over_service_s=SERVICE_S)
    assert out["p99_ratio"] == pytest.approx(2.0)
    assert out["ok"] is True


@pytest.mark.parametrize("slowdown", [1.6, 2.5, 4.0])
def test_uniform_host_slowdown_in_the_overload_run_passes(slowdown):
    """Everything in the 2x run takes ``slowdown`` times longer (the host
    got busier): the raw p99 ratio exceeds the 3x limit, the verdict does
    not move."""
    out = check(
        over_p99_s=slowdown * 4.0 * SERVICE_S,
        over_service_s=slowdown * SERVICE_S,
    )
    assert out["p99_overload_s"] / out["p99_at_saturation_s"] > out["ratio_limit"]
    assert out["p99_ratio"] == pytest.approx(2.0)
    assert out["p99_within_limit"] and out["ok"] is True


def test_queueing_without_shedding_still_fails():
    """Service unchanged, accepted p99 at 10x service: the queue grew."""
    out = check(over_p99_s=10.0 * SERVICE_S, over_service_s=SERVICE_S)
    assert out["p99_ratio"] == pytest.approx(5.0)
    assert out["ratio_limit"] == 3.0
    assert not out["p99_within_limit"]
    assert out["ok"] is False


def test_at_saturation_p99_is_floored_at_one_service_time():
    runs = [
        run("1x", 1.0, 0.1 * SERVICE_S, SERVICE_S),
        run("2x", 2.0, 2.0 * SERVICE_S, SERVICE_S, shed=3),
    ]
    out = _overload_check(runs, service_floor_s=SERVICE_S)
    assert out["p99_ratio"] == pytest.approx(2.0)
