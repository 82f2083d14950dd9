"""Deterministic discrete-event simulation engine.

This module provides :class:`Environment` (the event loop) and
:class:`Process` (a generator-based simulation process).  Together with the
resource models in :mod:`repro.simulation.resources` and the network model in
:mod:`repro.simulation.network`, it forms the substrate on which the
distributed Q/A cluster of the paper is reproduced.

Design notes
------------
* The event queue is a plain ``heapq`` list of ``(time, priority, seq,
  event)`` entries.  ``seq`` comes from one ``itertools.count``, so
  simulations are fully deterministic — two events scheduled for the same
  instant and priority fire in the order they were scheduled — and
  ``next(env._seq)`` is the number of events scheduled so far.
* Processes are plain Python generators.  ``yield event`` suspends the
  process until the event fires; the event's value is returned by the
  ``yield`` expression (or its exception raised).  A process waits on one
  event at a time and nothing else can resume it.
* A process is itself an :class:`~repro.simulation.events.Event` that fires
  when the generator returns, enabling fork/join patterns
  (``yield env.all_of([env.process(worker(i)) for i in ...])``) — the same
  pattern the paper's sender-controlled distribution loop (Fig 5c) uses with
  one monitoring thread per worker.
"""

from __future__ import annotations

import heapq
import itertools
import typing as t

from .events import _PENDING, AllOf, Event, SimulationError, Timeout

__all__ = ["Environment", "Process", "EmptySchedule"]

#: Default priority for scheduled events.  A process's first step and its
#: resume on an already-processed event use 0, ahead of whatever else is
#: due at the same instant.
_NORMAL = 1
_URGENT = 0


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Process(Event):
    """A running simulation process wrapping a generator.

    The process event fires when the generator finishes; its value is the
    generator's return value.  If the generator raises, the process event
    fails with that exception (propagating to any process waiting on it)
    unless nobody waits, in which case the exception surfaces out of
    :meth:`Environment.run` to avoid silently swallowed bugs.
    """

    __slots__ = ("_generator",)

    def __init__(
        self,
        env: "Environment",
        generator: t.Generator[Event, object, object],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Kick-start on the next queue iteration at the current time.
        # The bootstrap hub is anonymous: per-process f-string labels are
        # measurable overhead and the process itself carries the name.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)  # type: ignore[union-attr]
        bootstrap._ok = True
        bootstrap._value = None
        env._schedule(bootstrap, delay=0.0, priority=_URGENT)

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger event's outcome."""
        env = self.env
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(
                    t.cast(BaseException, trigger._value)
                )
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.callbacks:
                self.fail(exc)
                return
            # Nobody is listening: crash the simulation loudly.
            self._ok = False
            self._value = exc
            env._schedule(self, delay=0.0)
            env._crashed = (self, exc)
            return

        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
        if target.env is not env:
            raise SimulationError("cannot wait on an event from another environment")
        if target.callbacks is None:
            # Already processed: resume immediately (same timestamp).
            hub = Event(env)
            hub._ok = target._ok
            hub._value = target._value
            hub.callbacks.append(self._resume)  # type: ignore[union-attr]
            env._schedule(hub, delay=0.0, priority=_URGENT)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """The simulation clock and event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    """

    __slots__ = ("_now", "_queue", "_seq", "_crashed")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._crashed: tuple[Process, BaseException] | None = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ---------------------------------------------------
    def event(self, name: str | None = None) -> Event:
        """Create a new pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: t.Generator[Event, object, object],
        name: str | None = None,
    ) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: t.Sequence[Event]) -> AllOf:
        """Event firing when all ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling / running ---------------------------------------------------
    def _schedule(
        self, event: Event, delay: float, priority: int = _NORMAL
    ) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._seq), event)
        )

    def schedule_at(self, event: Event, when: float) -> None:
        """Trigger ``event`` (value ``None``) to fire at the absolute instant ``when``.

        ``env.timeout(when - now)`` would fire at ``now + (when - now)``,
        which is not always ``when`` in floats; a caller that has computed
        the instant (the fair-share timers) schedules it exactly.
        """
        if when < self._now:
            raise ValueError(f"negative timeout delay: {when - self._now!r}")
        if event._value is not _PENDING:
            raise SimulationError(f"{event!r} has already been triggered")
        event._value = None
        heapq.heappush(self._queue, (when, _NORMAL, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when queue is empty)."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise EmptySchedule()
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        event._run_callbacks()
        if self._crashed is not None:
            proc, exc = self._crashed
            self._crashed = None
            raise exc

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (raising its exception if it failed).

        All three loops are inlined fast paths over the same pop/clock/
        callback sequence as :meth:`step`; event firing order is
        identical to stepping manually.
        """
        queue = self._queue
        heappop = heapq.heappop
        if until is None:
            while queue:
                when, _prio, _seq, event = heappop(queue)
                self._now = when
                event._run_callbacks()
                if self._crashed is not None:
                    proc, exc = self._crashed
                    self._crashed = None
                    raise exc
            return None

        if isinstance(until, Event):
            target = until
            sentinel: list[object] = []

            def _done(evt: Event) -> None:
                sentinel.append(evt)

            if target.callbacks is None:
                sentinel.append(target)
            else:
                target.callbacks.append(_done)
            while not sentinel:
                if not queue:
                    raise SimulationError(
                        f"simulation ran out of events before {target!r} fired"
                    )
                when, _prio, _seq, event = heappop(queue)
                self._now = when
                event._run_callbacks()
                if self._crashed is not None:
                    proc, exc = self._crashed
                    self._crashed = None
                    raise exc
            if not target.ok:
                raise t.cast(BaseException, target._value)
            return target.value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"cannot run backwards to t={horizon} (now={self._now})")
        while queue and queue[0][0] <= horizon:
            when, _prio, _seq, event = heappop(queue)
            self._now = when
            event._run_callbacks()
            if self._crashed is not None:
                proc, exc = self._crashed
                self._crashed = None
                raise exc
        self._now = horizon
        return None
