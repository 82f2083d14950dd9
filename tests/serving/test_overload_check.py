"""The overload verdict on synthetic runs: a host slowdown is not queueing,
and neither is a shift in which questions were answered.

``_overload_check`` compares the overload run's accepted p99 with the
at-saturation one, each in units of its own run's mean service time over
the questions both runs answered.
"""

import pytest

from repro.serving.loadgen import _overload_check

SERVICE_S = 0.010  # calibrated mean service time


def run(label, load_factor, p99_s, service_mean_s=SERVICE_S, shed=0, by_qid=None):
    """A run record; every one of four questions takes ``service_mean_s``
    unless ``by_qid`` gives each answered question's mean service."""
    if by_qid is None:
        by_qid = dict.fromkeys(range(4), service_mean_s)
    return {
        "label": label,
        "load_factor": load_factor,
        "conservation_ok": True,
        "latency_s": {"p99_s": p99_s},
        "service_s": {"mean_s": sum(by_qid.values()) / len(by_qid)},
        "service_by_qid_s": by_qid,
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


def test_overload_run_answering_only_fast_questions_is_not_inflated():
    """The 2x run shed the slow questions and answered only the fast ones,
    at twice the at-saturation p99.  Its mean over what it answered is a
    third of the 1x run's; compared on the questions both answered, the
    ratio is the queueing alone."""
    fast, slow = 0.5 * SERVICE_S, 2.5 * SERVICE_S
    every = {0: fast, 1: fast, 2: slow, 3: slow}
    runs = [
        run("1x", 1.0, 3.0 * SERVICE_S, by_qid=every),
        run("2x", 2.0, 6.0 * SERVICE_S, shed=40, by_qid={0: fast, 1: fast}),
    ]
    out = _overload_check(runs, service_floor_s=SERVICE_S)
    assert out["service_qids_compared"] == 2
    assert out["service_mean_at_saturation_s"] == pytest.approx(fast)
    assert out["service_mean_overload_s"] == pytest.approx(fast)
    assert out["p99_ratio"] == pytest.approx(2.0)
    assert out["ok"] is True
    # Each run's own answered mean would have read 6.0 / 0.5 against
    # 3.0 / 1.5: a ratio of 6, failing the 3x limit.
    own = [r["service_s"]["mean_s"] for r in runs]
    assert (6.0 * SERVICE_S / own[1]) / (3.0 * SERVICE_S / own[0]) > 3.0
