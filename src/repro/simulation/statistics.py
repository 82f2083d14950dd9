"""Time-weighted statistics helpers for the simulation substrate.

The paper's load-balancing heuristics consume *loads* — time-averaged
resource occupancies reported by each node's load monitor (Section 3.1).
:class:`TimeWeightedSignal` records a piecewise-constant signal (e.g. the
number of active jobs on a CPU) and answers windowed averages without
storing the full history: each observer keeps an independent checkpoint of
the running integral.
"""

from __future__ import annotations

__all__ = ["TimeWeightedSignal", "RunningMean"]


class TimeWeightedSignal:
    """A piecewise-constant signal with O(1) windowed-average queries.

    The signal is advanced by calling :meth:`set` (or :meth:`add`) whenever
    its value changes.  The running time-integral is maintained
    incrementally; :meth:`average` returns the mean value over an arbitrary
    past window by comparing against a caller-kept checkpoint.
    """

    __slots__ = ("_value", "_t_last", "_integral")

    def __init__(self, initial: float = 0.0, t0: float = 0.0) -> None:
        self._value = float(initial)
        self._t_last = float(t0)
        self._integral = 0.0

    @property
    def value(self) -> float:
        """Current instantaneous value."""
        return self._value

    def set(self, now: float, value: float) -> None:
        """Record that the signal takes ``value`` from time ``now`` on."""
        t_last = self._t_last
        if now < t_last:
            raise ValueError(f"time went backwards: {now} < {t_last}")
        self._integral += self._value * (now - t_last)
        self._t_last = now
        self._value = float(value)

    def add(self, now: float, delta: float) -> None:
        """Increment the signal by ``delta`` at time ``now``."""
        # Same steps as ``set``, spelled out: every fair-share ``use`` and
        # completion lands here, and a nested call costs as much as the body.
        t_last = self._t_last
        if now < t_last:
            raise ValueError(f"time went backwards: {now} < {t_last}")
        self._integral += self._value * (now - t_last)
        self._t_last = now
        self._value += delta

    def integral(self, now: float) -> float:
        """Integral of the signal from t0 up to ``now``."""
        return self._integral + self._value * (now - self._t_last)

    def checkpoint(self, now: float) -> tuple[float, float]:
        """Snapshot ``(now, integral)`` for later use with :meth:`average`."""
        return (now, self._integral + self._value * (now - self._t_last))

    def average(self, checkpoint: tuple[float, float], now: float) -> float:
        """Mean signal value between ``checkpoint`` time and ``now``.

        Returns the instantaneous value when the window is empty.
        """
        t0, i0 = checkpoint
        if now <= t0:
            return self._value
        integral = self._integral + self._value * (now - self._t_last)
        return (integral - i0) / (now - t0)


class RunningMean:
    """Numerically stable streaming mean/variance (Welford's algorithm)."""

    __slots__ = ("n", "_mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (0 for fewer than two observations)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return self.variance**0.5

    def __len__(self) -> int:
        return self.n
