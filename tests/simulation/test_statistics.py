"""Tests for time-weighted statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import TimeWeightedSignal


def window_average(signal, t0, i0, now):
    """The mean over ``[t0, now]`` from two integral readings, as the load
    monitor computes each write."""
    return (signal.integral(now) - i0) / (now - t0)


class TestTimeWeightedSignal:
    def test_constant_signal_average(self):
        s = TimeWeightedSignal(3.0)
        assert window_average(s, 0.0, s.integral(0.0), 10.0) == pytest.approx(3.0)

    def test_step_signal_average(self):
        s = TimeWeightedSignal(0.0)
        s.set(0.0, 1.0)
        s.set(5.0, 3.0)
        # 0..5 at 1, 5..10 at 3 -> mean 2.
        assert window_average(s, 0.0, 0.0, 10.0) == pytest.approx(2.0)

    def test_add_increments(self):
        s = TimeWeightedSignal(0.0)
        s.add(0.0, 2.0)
        s.add(1.0, -1.0)
        assert s.value == pytest.approx(1.0)
        assert s.integral(2.0) == pytest.approx(2.0 + 1.0)

    def test_windowed_average_with_checkpoint(self):
        s = TimeWeightedSignal(0.0)
        s.set(0.0, 10.0)
        i4 = s.integral(4.0)  # read before the next change
        s.set(6.0, 0.0)
        # Window 4..8: 10 for 2s, 0 for 2s -> 5.
        assert window_average(s, 4.0, i4, 8.0) == pytest.approx(5.0)

    def test_time_backwards_rejected(self):
        s = TimeWeightedSignal(0.0)
        s.set(5.0, 1.0)
        with pytest.raises(ValueError):
            s.set(4.0, 2.0)

    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),
                st.floats(min_value=-10.0, max_value=10.0),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_integral_matches_manual_sum(self, steps):
        s = TimeWeightedSignal(0.0)
        t = 0.0
        manual = 0.0
        value = 0.0
        for dt, v in steps:
            manual += value * dt
            t += dt
            s.set(t, v)
            value = v
        assert s.integral(t) == pytest.approx(manual, rel=1e-9, abs=1e-9)

