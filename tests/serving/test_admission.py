"""Unit tests for the admission state machine."""

import pytest

from repro.serving import AdmissionConfig, AdmissionController, ShedReason


def make(**kw):
    return AdmissionController(AdmissionConfig(**kw))


class TestAdmissionConfig:
    def test_effective_deadline_defaults_to_six_services(self):
        assert AdmissionConfig(est_service_s=0.1).effective_deadline_s == pytest.approx(0.6)
        assert AdmissionConfig(deadline_s=1.5).effective_deadline_s == 1.5

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_concurrent": 0},
            {"max_queue_depth": -1},
            {"est_service_s": 0.0},
            {"deadline_s": -1.0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            AdmissionConfig(**kw)


class TestAdmissionController:
    def test_idle_admissions_have_zero_wait(self):
        ctl = make(max_concurrent=3, est_service_s=1.0)
        for seq in range(3):
            d = ctl.submit(seq, seq, 0.0)
            assert d.accepted and d.predicted_wait_s == 0.0

    def test_queue_full_sheds_with_typed_reason(self):
        # 3 slots + queue of 2: arrivals 6.. shed QUEUE_FULL.
        ctl = make(max_concurrent=3, max_queue_depth=2, est_service_s=0.1,
                   deadline_s=100.0)
        decisions = [ctl.submit(i, i, 0.0) for i in range(8)]
        assert [d.accepted for d in decisions] == [True] * 5 + [False] * 3
        assert all(
            d.shed_reason is ShedReason.QUEUE_FULL for d in decisions[5:]
        )
        # The shed decision reports the state that justified it.
        assert decisions[5].queue_depth == 2
        assert decisions[5].predicted_wait_s > 0.0

    def test_deadline_shed_before_queue_full(self):
        # Queue is deep enough, but the sojourn budget is one service time:
        # any arrival that must wait is doomed and shed DEADLINE.
        ctl = make(max_concurrent=1, max_queue_depth=10, est_service_s=1.0,
                   deadline_s=1.0)
        assert ctl.submit(0, 0, 0.0).accepted
        d = ctl.submit(1, 1, 0.0)
        assert not d.accepted and d.shed_reason is ShedReason.DEADLINE

    def test_slots_free_as_logical_time_advances(self):
        ctl = make(max_concurrent=1, max_queue_depth=0, est_service_s=1.0)
        assert ctl.submit(0, 0, 0.0).accepted
        assert not ctl.submit(1, 1, 0.5).accepted  # still busy until 1.0
        later = ctl.submit(2, 2, 1.5)
        assert later.accepted and later.predicted_wait_s == 0.0

    def test_draining_sheds_everything(self):
        ctl = make()
        ctl.start_draining()
        d = ctl.submit(0, 0, 0.0)
        assert d.shed_reason is ShedReason.DRAINING

    def test_decision_key_is_stable_and_complete(self):
        ctl = make(max_concurrent=1, max_queue_depth=0, est_service_s=1.0)
        ctl.submit(0, 10, 0.0)
        ctl.submit(1, 11, 0.0)
        key = ctl.decision_key()
        assert len(key) == 2
        assert key[0] == (0, 10, True, None, 0.0, 0)
        assert key[1][:4] == (1, 11, False, "queue_full")
        # repr round-trips: this is what the loadgen digests.
        assert eval(repr(key)) == key

    def test_clock_never_runs_backwards(self):
        ctl = make(max_concurrent=1, max_queue_depth=0, est_service_s=1.0)
        assert ctl.submit(0, 0, 5.0).accepted
        # An out-of-order earlier arrival is clamped to the clock (5.0),
        # where the slot is still busy.
        d = ctl.submit(1, 1, 1.0)
        assert not d.accepted
        assert d.arrival_s == 5.0
