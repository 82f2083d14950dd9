"""Fair-share resource models: CPU, disk, and memory.

The paper's cluster nodes contend for three resources (Section 2.2): the
CPU (answer processing is CPU-bound), the disk (paragraph retrieval is
I/O-bound), and dynamic memory (more than four simultaneous questions cause
page thrashing).  We model CPU and disk as *egalitarian processor-sharing*
servers: a resource with capacity ``C`` units/second serves its ``n``
active jobs at ``C·w_i/Σw`` each.  This is the standard fluid model of a
time-sliced CPU or a disk shared by concurrent streams, and it is what
makes the paper's contention effects (e.g. four simultaneous PR phases
quartering each other's disk bandwidth) emerge rather than being scripted.

The implementation uses the classic *virtual time* technique from
generalized processor sharing: virtual time advances at rate ``C/Σw``, a
job with demand ``D`` and weight ``w`` finishes when virtual time has
advanced by ``D/w`` since its arrival.  Membership changes and capacity
changes are O(log n).

Timer discipline
----------------
A job should cost one trip through the event queue, so the resource does
not re-push a timer at every change and does not send completions through
the queue a second time:

* *Lazy timers.*  Every membership or capacity change recomputes
  ``_wake_at``, the absolute instant the head job is due (``now + dt``),
  but pushes a timer only if none of the resource's timers still in the
  queue (``_timers``) fires at or before it.  A timer that fires before
  ``_wake_at`` — the due instant moved later after it was pushed — re-arms
  for the same ``_wake_at`` and touches nothing else: virtual time only
  advances at the instants it always did (an extra step would change the
  rounding of every later completion time).  A timer left behind fires as
  a no-op only when the due instant moved *earlier*.
* *Inline completion.*  When a wakeup completes exactly one job and nothing
  already queued is due at ``now``, the job's event is the one the loop
  would pop next; it is fired on the spot — after the re-arm, whose timer
  would have been queued behind it, and still drawing a sequence number so
  that ``env._seq`` counts events fired.  In every other case completions
  go through ``succeed()`` before the re-arm, so same-instant firing order
  is the queue's own.
"""

from __future__ import annotations

import itertools
import typing as t
from heapq import heappop, heappush
from math import ulp

from .engine import Environment
from .events import Event, SimulationError
from .statistics import TimeWeightedSignal

__all__ = ["FairShareResource", "Job", "MemoryResource"]

_INF = float("inf")


class Job:
    """Handle for one in-flight demand on a :class:`FairShareResource`."""

    __slots__ = ("event", "demand", "weight", "_target_v")

    def __init__(self, event: Event, demand: float, weight: float) -> None:
        self.event = event
        self.demand = demand
        self.weight = weight
        self._target_v = 0.0

    @property
    def done(self) -> bool:
        return self.event.triggered


class FairShareResource:
    """An egalitarian (weighted) processor-sharing server.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Service rate in units/second (e.g. CPU-seconds/second == 1.0 for a
        reference CPU, or bytes/second for a disk).
    name:
        Diagnostic label.
    """

    def __init__(self, env: Environment, capacity: float, name: str = "resource") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self._capacity = float(capacity)
        #: Active jobs in submission order (a dict, not a set: the weight
        #: resync in ``_remove`` sums over it, and a float sum must not
        #: depend on object addresses).
        self._jobs: dict[Job, None] = {}
        #: Completion order: a heap of (target_v, seq, job), one entry per
        #: active job; ``seq`` keeps equal targets in submission order.
        self._heap: list[tuple[float, int, Job]] = []
        self._seq = itertools.count()
        self._vtime = 0.0
        self._t_last = env.now
        self._weight_sum = 0.0
        #: Absolute instant the head job is due (inf when idle).
        self._wake_at = _INF
        #: Fire times of this resource's timers still in the event queue,
        #: latest first — a new timer is only ever pushed ahead of them all.
        self._timers: list[float] = []
        #: Number of active jobs over time — feeds load metrics.
        self.active_jobs = TimeWeightedSignal(0.0, env.now)
        #: Busy (≥1 job) indicator over time — feeds utilisation metrics.
        self.busy = TimeWeightedSignal(0.0, env.now)
        #: Total demand completed, for accounting.
        self.completed_units = 0.0

    # -- public API ----------------------------------------------------------
    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def n_active(self) -> int:
        return len(self._jobs)

    def set_capacity(self, capacity: float) -> None:
        """Change the service rate (e.g. memory-thrash slowdown).

        In-flight jobs keep their already-received service; remaining work
        proceeds at the new rate.  Setting the current rate again is a
        no-op: recomputing the due instant would only move it by rounding.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if capacity == self._capacity:
            return
        self._advance()
        self._capacity = float(capacity)
        self._arm()

    def use(self, demand: float, weight: float = 1.0) -> Job:
        """Submit a demand; the returned job's ``event`` fires on completion.

        A zero demand completes immediately (still passing through the event
        queue, so ordering stays deterministic).
        """
        if demand < 0:
            raise ValueError(f"negative demand: {demand}")
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight}")
        # Anonymous completion event: this is the engine's hottest event
        # constructor after Timeout, and a per-use f-string label costs
        # more than the heap push that schedules it.
        event = Event(self.env)
        job = Job(event, float(demand), float(weight))
        if demand == 0.0:
            event.succeed(0.0)
            return job
        self._advance()
        job._target_v = self._vtime + demand / weight
        self._jobs[job] = None
        self._weight_sum += weight
        heappush(self._heap, (job._target_v, next(self._seq), job))
        now = self._t_last
        self.active_jobs.add(now, 1.0)
        if len(self._jobs) == 1:
            self.busy.set(now, 1.0)
        self._arm()
        return job

    # -- internals -------------------------------------------------------------
    def _advance(self) -> None:
        now = self.env._now
        if self._weight_sum > 0:
            self._vtime += (now - self._t_last) * self._capacity / self._weight_sum
        self._t_last = now

    def _remove(self, job: Job) -> None:
        """Drop ``job`` from the active set (virtual time already at now)."""
        jobs = self._jobs
        del jobs[job]
        self._weight_sum -= job.weight
        if self._weight_sum < 1e-12:
            self._weight_sum = 0.0 if not jobs else sum(j.weight for j in jobs)
        now = self._t_last
        self.active_jobs.add(now, -1.0)
        if not jobs:
            self.busy.set(now, 0.0)

    def _arm(self) -> None:
        """Recompute when the earliest-finishing job is due and push a timer
        unless a pending one fires by then (virtual time already at now)."""
        heap = self._heap
        if not heap:
            self._wake_at = _INF
            return
        dt = max(0.0, (heap[0][0] - self._vtime) * self._weight_sum / self._capacity)
        self._wake_at = wake_at = self._t_last + dt
        timers = self._timers
        if not timers or timers[-1] > wake_at:
            timers.append(wake_at)
            timer = Event(self.env)
            timer.callbacks.append(self._on_wakeup)  # type: ignore[union-attr]
            self.env.schedule_at(timer, wake_at)

    def _on_wakeup(self, _timer: Event) -> None:
        self._timers.pop()
        env = self.env
        now = env._now
        if now != self._wake_at:
            # Early (the due instant moved later, or the resource went
            # idle): no virtual-time step.  With the state untouched
            # ``_arm`` recomputes the same ``_wake_at`` and pushes its timer.
            self._arm()
            return
        self._advance()
        # Complete every job whose virtual target has been reached (ties
        # complete together, e.g. equal demands started together), and
        # every job due within one step of the clock's float resolution:
        # its due instant rounds to ``now``, so no later wakeup could
        # advance virtual time far enough to reach it.
        limit = self._vtime + max(
            1e-9 * max(1.0, abs(self._vtime)),
            ulp(now) * self._capacity / self._weight_sum,
        )
        heap = self._heap
        done: list[Job] = []
        while heap and heap[0][0] <= limit:
            job = heappop(heap)[-1]
            self._remove(job)
            self.completed_units += job.demand
            done.append(job)
        if len(done) == 1 and env.peek() > now:
            # Nothing queued is due at this instant: the lone completion is
            # the event the loop would pop next (see "Inline completion").
            self._arm()
            event = done[0].event
            event._value = done[0].demand
            next(env._seq)
            event._run_callbacks()
            return
        for job in done:
            job.event.succeed(job.demand)
        self._arm()


class MemoryResource:
    """A counting resource with overcommit tracking.

    Memory differs from CPU/disk: allocation is instantaneous, but *over*-
    allocating (beyond physical capacity) degrades the node — the paper
    observes "excessive page swapping caused by the lack of dynamic memory"
    at >4 simultaneous questions on 256 MB nodes.  A registered pressure
    callback lets the owning node translate overcommit into a CPU slowdown.
    """

    def __init__(
        self,
        env: Environment,
        capacity_bytes: float,
        name: str = "memory",
        on_pressure_change: t.Callable[[float], None] | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("memory capacity must be positive")
        self.env = env
        self.name = name
        self.capacity = float(capacity_bytes)
        self.allocated = 0.0
        self.peak = 0.0
        self._on_pressure_change = on_pressure_change
        self.level = TimeWeightedSignal(0.0, env.now)

    @property
    def overcommit(self) -> float:
        """Allocation beyond physical capacity, as a fraction of capacity."""
        return max(0.0, self.allocated - self.capacity) / self.capacity

    def allocate(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        self.allocated += nbytes
        self.peak = max(self.peak, self.allocated)
        self.level.set(self.env.now, self.allocated)
        if self._on_pressure_change is not None:
            self._on_pressure_change(self.overcommit)

    def release(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"negative release: {nbytes}")
        if nbytes > self.allocated + 1e-6:
            raise SimulationError(
                f"{self.name}: releasing {nbytes} > allocated {self.allocated}"
            )
        self.allocated = max(0.0, self.allocated - nbytes)
        self.level.set(self.env.now, self.allocated)
        if self._on_pressure_change is not None:
            self._on_pressure_change(self.overcommit)
