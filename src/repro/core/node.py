"""A simulated cluster node.

Models one of the paper's workstations: a CPU, a disk, and 256 MB of
memory (Section 6's testbed: 500 MHz Pentium III, 256 MB RAM, 50 GB disk).
CPU and disk are fair-share resources; memory overcommit translates into a
CPU slowdown, reproducing the paper's observation that more than four
simultaneous questions cause "excessive page swapping" and throughput
collapse (Section 4.2).
"""

from __future__ import annotations

import typing as t
from collections import deque
from dataclasses import dataclass

from ..qa.costs import ModuleCost
from ..simulation.engine import Environment
from ..simulation.events import Event
from ..simulation.resources import FairShareResource, MemoryResource

__all__ = ["NodeConfig", "ClusterNode", "NodeDown"]


class NodeDown(Exception):
    """Raised into tasks waiting for admission on a node that died."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id} went down")
        self.node_id = node_id


@dataclass(frozen=True, slots=True)
class NodeConfig:
    """Per-node hardware parameters."""

    cpu_speed: float = 1.0  # relative to the reference CPU
    disk_bandwidth: float = 25e6  # bytes/second
    memory_bytes: float = 256e6
    #: Memory statically used by the OS and resident services.
    baseline_memory_bytes: float = 100e6
    #: CPU slowdown per unit of memory overcommit (page-thrash model):
    #: effective_speed = cpu_speed / (1 + thrash_factor * overcommit).
    thrash_factor: float = 6.0
    #: Questions the node's Q/A service executes concurrently; further
    #: hosted questions wait in a FIFO queue.  The paper measured best
    #: throughput at 2-3 simultaneous questions, degradation past 4
    #: (Section 4.2), so the service admits 3.
    max_concurrent_questions: int = 3


class ClusterNode:
    """One node of the distributed Q/A system."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        config: NodeConfig | None = None,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.config = config or NodeConfig()
        #: Standing fraction of the CPU held back (see ``reserve_cpu``).
        self.cpu_reserved = 0.0
        self.cpu = FairShareResource(
            env, capacity=self.config.cpu_speed, name=f"cpu[{node_id}]"
        )
        self.disk = FairShareResource(
            env, capacity=self.config.disk_bandwidth, name=f"disk[{node_id}]"
        )
        self.memory = MemoryResource(
            env,
            capacity_bytes=self.config.memory_bytes,
            name=f"mem[{node_id}]",
            on_pressure_change=self._on_memory_pressure,
        )
        self.memory.allocate(self.config.baseline_memory_bytes)
        #: Q/A tasks currently hosted here, running or queued (the
        #: dispatcher's n_questions signal).
        self.active_questions = 0
        #: Q/A tasks currently *executing* (admission-controlled).
        self.running_questions = 0
        self._admission_waiters: deque[Event] = deque()
        self.up = True

    # -- question admission (FIFO, bounded concurrency) ---------------------------
    @property
    def waiting_questions(self) -> int:
        """Hosted questions not yet admitted to execution."""
        return len(self._admission_waiters)

    def admit_question(self) -> Event:
        """Event firing when the question may start executing.

        Fires immediately (still via the queue, keeping determinism) when
        a slot is free; otherwise the caller waits in FIFO order.
        """
        event = self.env.event(name=f"admit[{self.node_id}]")
        if self.running_questions < self.config.max_concurrent_questions:
            self.running_questions += 1
            event.succeed()
        else:
            self._admission_waiters.append(event)
        return event

    def release_question(self) -> None:
        """Free an execution slot, admitting the next waiter if any."""
        if self._admission_waiters:
            self._admission_waiters.popleft().succeed()
        else:
            self.running_questions = max(0, self.running_questions - 1)

    def fail_admission_waiters(self) -> None:
        """Reject every queued question (the node just died)."""
        waiters, self._admission_waiters = self._admission_waiters, deque()
        for event in waiters:
            event.fail(NodeDown(self.node_id))

    # -- CPU capacity: reservation and memory-pressure thrash -------------------
    def reserve_cpu(self, fraction: float) -> None:
        """Hold back a standing ``fraction`` of the CPU.

        Periodic work whose cost is known in closed form (the load
        monitor's ``t_load`` per interval, Eq 14) is charged this way
        rather than as jobs; it composes with the thrash slowdown.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"CPU reservation must be in [0, 1), got {fraction}")
        self.cpu_reserved = fraction
        self._on_memory_pressure(self.memory.overcommit)

    def _on_memory_pressure(self, overcommit: float) -> None:
        effective = self.config.cpu_speed * (1.0 - self.cpu_reserved) / (
            1.0 + self.config.thrash_factor * overcommit
        )
        self.cpu.set_capacity(max(effective, 1e-6))

    # -- resource consumption (process bodies) ---------------------------------
    def run_cpu(self, cpu_s: float) -> t.Generator[Event, object, None]:
        """Consume ``cpu_s`` reference-CPU seconds on this node."""
        if cpu_s > 0:
            job = self.cpu.use(cpu_s)
            yield job.event

    def run_disk(self, nbytes: float) -> t.Generator[Event, object, None]:
        """Read ``nbytes`` from this node's disk."""
        if nbytes > 0:
            job = self.disk.use(nbytes)
            yield job.event

    def run_cost(self, cost: ModuleCost) -> t.Generator[Event, object, None]:
        """Consume a module cost: disk phase then CPU phase.

        Sequential disk->CPU matches the iterative read-then-process
        structure of the real modules and produces the utilisation splits
        of Table 3 (a PR sub-task keeps the disk busy ~80 % of its
        duration and the CPU ~20 %).
        """
        yield from self.run_disk(cost.disk_bytes)
        yield from self.run_cpu(cost.cpu_s)
