"""Event primitives for the discrete-event simulation engine.

The engine follows the classic process-interaction style (as popularised by
SimPy): simulation *processes* are Python generators that ``yield`` event
objects; the engine resumes the generator when the yielded event fires.

Only the primitives the distributed Q/A simulation runs are implemented:
plain one-shot events, timeouts, process-completion events and the
all-of join (:class:`AllOf`) the partitioning loops wait on.  Everything is
deterministic: events scheduled at the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), which keeps
whole simulations reproducible from a seed.
"""

from __future__ import annotations

import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .engine import Environment

__all__ = ["Event", "Timeout", "AllOf", "SimulationError"]

#: Sentinel for "event has not produced a value yet".
_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double-trigger, etc.)."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event begins *pending*; it is *triggered* once :meth:`succeed` or
    :meth:`fail` is called, which schedules it onto the environment's queue;
    when the queue pops it, it is *processed* and its callbacks run.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "name")

    def __init__(self, env: "Environment", name: str | None = None) -> None:
        self.env = env
        #: Callables invoked with the event once it is processed.
        self.callbacks: list[t.Callable[[Event], None]] | None = []
        self._value: object = _PENDING
        self._ok: bool = True
        self._processed = False
        self.name = name

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay=0.0)
        return self

    # -- internal ----------------------------------------------------------
    def _run_callbacks(self) -> None:
        """Invoke and clear the callback list (engine-internal)."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{label} {state} at t={self.env.now:.6g}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts are the engine's hottest allocation: one per simulated
    delay and monitor round.  The constructor is therefore kept lean —
    in particular the diagnostic name is *lazy*
    (``name`` stays ``None`` unless a caller passes one); formatting a
    per-event label costs more than the rest of the scheduling combined.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        env: "Environment",
        delay: float,
        value: object = None,
        name: str | None = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._processed = False
        self.name = name
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else "triggered"
        return f"<{self.name or f'Timeout({self.delay:.6g})'} {state}>"


class AllOf(Event):
    """Fires once *all* component events have fired, with a dict of their
    values; fails as soon as one of them fails."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, env: "Environment", events: t.Sequence[Event]) -> None:
        super().__init__(env, name="AllOf")
        self.events = tuple(events)
        self._n_fired = 0
        if any(e.env is not env for e in self.events):
            raise ValueError("all events must belong to the same environment")
        if not self.events:
            # An empty condition is trivially satisfied.
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, object]:
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(t.cast(BaseException, event.value))
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._collect())
