"""Time-weighted statistics helpers for the simulation substrate.

The paper's load-balancing heuristics consume *loads* — time-averaged
resource occupancies reported by each node's load monitor (Section 3.1).
:class:`TimeWeightedSignal` records a piecewise-constant signal (e.g. the
number of active jobs on a CPU) and its running time-integral without
storing the full history: the mean over a window is the difference of two
integral readings over the window's length, which is how the monitor
computes each write.
"""

from __future__ import annotations

__all__ = ["TimeWeightedSignal"]


class TimeWeightedSignal:
    """A piecewise-constant signal with an O(1) running integral.

    The signal is advanced by calling :meth:`set` (or :meth:`add`) whenever
    its value changes; :meth:`integral` reads the time-integral up to any
    instant since the last change.
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
