"""Failure injection for the simulated cluster.

The paper's partitioning algorithms (Section 4.1) carry explicit recovery
strategies: the sender-controlled loop (Fig 5c) rebuilds a task from
unprocessed partitions; the receiver-controlled loop (Fig 6b) returns a
failed worker's chunk to the available set.  To test those paths we need a
way to kill a node at a chosen moment (or according to a random schedule)
and, optionally, bring it back — exercising the dynamic join/leave
membership the design requires ("processors must be able to dynamically
join or leave the system pool", Section 3).
"""

from __future__ import annotations

import typing as t

from .engine import Environment
from .events import Event

__all__ = ["FailureInjector", "FailureSchedule"]


class FailureSchedule:
    """A list of (time, node_id, up?) transitions."""

    def __init__(self) -> None:
        self.transitions: list[tuple[float, object, bool]] = []

    def kill_at(self, time: float, node_id: object) -> "FailureSchedule":
        self.transitions.append((time, node_id, False))
        return self

    def recover_at(self, time: float, node_id: object) -> "FailureSchedule":
        self.transitions.append((time, node_id, True))
        return self

    def sorted(self) -> list[tuple[float, object, bool]]:
        return sorted(self.transitions, key=lambda x: x[0])

    def merge(self, other: "FailureSchedule") -> "FailureSchedule":
        """Append another schedule's transitions (returns ``self``)."""
        self.transitions.extend(other.transitions)
        return self

    def node_ids(self) -> set[object]:
        """Every node mentioned by the schedule."""
        return {nid for _, nid, _ in self.transitions}

    def __len__(self) -> int:
        return len(self.transitions)


class FailureInjector:
    """Drives node up/down transitions during a simulation.

    The injector talks to two hooks: the network's reachability map and an
    optional per-node callback (used by the cluster node to abort its
    in-flight resource jobs, mimicking a machine power-off).
    """

    def __init__(
        self,
        env: Environment,
        set_node_up: t.Callable[[object, bool], None],
        on_transition: t.Callable[[object, bool], None] | None = None,
    ) -> None:
        self.env = env
        self._set_node_up = set_node_up
        self._on_transition = on_transition
        self.log: list[tuple[float, object, bool]] = []

    def apply(self, schedule: FailureSchedule) -> None:
        """Spawn a process executing the schedule."""
        self.env.process(self._run(schedule), name="failure-injector")

    def kill_now(self, node_id: object) -> None:
        self._transition(node_id, up=False)

    def _transition(self, node_id: object, up: bool) -> None:
        self._set_node_up(node_id, up)
        if self._on_transition is not None:
            self._on_transition(node_id, up)
        self.log.append((self.env.now, node_id, up))

    def _run(
        self, schedule: FailureSchedule
    ) -> t.Generator[Event, object, None]:
        for when, node_id, up in schedule.sorted():
            if when > self.env.now:
                yield self.env.timeout(when - self.env.now)
            self._transition(node_id, up)
