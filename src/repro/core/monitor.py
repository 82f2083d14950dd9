"""Distributed load monitoring (Section 3.1), charged rather than simulated.

"Periodically each load monitor updates its local CPU and disk load and
broadcasts the information on the local interconnection network ...  if
load information is not received from a processor in a predefined time,
that processor is removed from the system pool.  A processor
automatically joins the pool when it starts broadcasting load
information."

The protocol's cost has a closed form, Eq 14: per interval ``I`` each
node spends ``t_load`` measuring and the shared medium carries
``N·S_load`` bytes.  That cost is charged as a standing reservation, not
simulated message by message: from its first round each CPU runs at
``1 − t_load/I`` of its speed, and the medium at ``1 − N·S_load/(B_net·I)``.
What is simulated is the information.  The cluster is split into
``max(1, monitor_shards)`` contiguous groups staggered by ``I/k`` (so
``monitor_shards=0`` is one group at phase 0, the all-to-all broadcast),
and one event per group and interval writes every live member's
snapshot into one shared table and stamps its heartbeat.

Every observer sees the same table, minus entries older than the
membership timeout, with itself live.  A dispatcher that sends work to a
node announces it (:meth:`MonitoringSystem.announce`): the target's entry
is bumped in that one table, for every observer at once, and charged as
one ``S_load`` broadcast.  The target's next round write, which already
counts the announced work, replaces it.
"""

from __future__ import annotations

import math
import typing as t
from dataclasses import dataclass
from functools import partial

from ..model import ModelParameters, monitoring_round_s
from ..observability.metrics import MetricsRegistry
from ..observability.names import MONITOR_BROADCASTS, MONITOR_BUSY_S
from ..simulation.engine import Environment
from ..simulation.events import Event
from ..simulation.network import Network
from .load import LoadSnapshot
from .node import ClusterNode

__all__ = ["MonitoringSystem", "auto_shard_count"]

#: ``Event.name`` of a group's per-interval write.
ROUND_EVENT = "monitor round"


def auto_shard_count(n_nodes: int) -> int:
    """A good default group count for large clusters: ~sqrt(N)."""
    return max(1, round(math.sqrt(max(1, n_nodes))))


@dataclass(slots=True)
class MonitorGroup:
    """Members written together once per interval, ``phase_s`` into it."""

    phase_s: float
    members: tuple[int, ...]
    #: Bytes of the group's round on the medium (``len(members)·S_load``).
    nbytes: float
    rounds: int = 0


class MonitoringSystem:
    """The shared load table, its per-interval writes and the membership protocol."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        nodes: t.Sequence[ClusterNode],
        interval_s: float = 1.0,
        packet_bytes: float = 512.0,
        membership_timeout_s: float = 3.0,
        metrics: MetricsRegistry | None = None,
        shards: int = 0,
        measure_cpu_s: float = 1e-3,
    ) -> None:
        self.env = env
        self.network = network
        self.nodes = {n.node_id: n for n in nodes}
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes
        self.membership_timeout_s = membership_timeout_s
        self.metrics = metrics
        ids = list(self.nodes)
        n, k = len(ids), min(max(1, shards), len(ids))
        self.groups: list[MonitorGroup] = []
        for g in range(k):
            members = tuple(ids[g * n // k : (g + 1) * n // k])
            self.groups.append(
                MonitorGroup(interval_s * g / k, members, packet_bytes * len(members))
            )
        #: Eq 14 per node and interval; each snapshot written books it.
        self.round_cost_s = monitoring_round_s(
            ModelParameters(t_load=measure_cpu_s, s_load=packet_bytes, b_net=network.bandwidth_bps),
            n,
        )
        self.cpu_reservation = measure_cpu_s / interval_s
        network.reserve(
            sum(g.nbytes for g in self.groups) / (network.bandwidth_bps / 8.0 * interval_s)
        )
        #: Each node's latest written snapshot, seeded idle so that
        #: dispatch works before the first round.
        self.table = {
            nid: LoadSnapshot(nid, cpu_load=0.0, disk_load=0.0, n_questions=0, timestamp=0.0)
            for nid in ids
        }
        #: Per member, (time, cpu integral, disk integral) at its last
        #: write: the start of the window its next write averages over.
        now = env.now
        self._since = {
            nid: (now, node.cpu.active_jobs.integral(now), node.disk.active_jobs.integral(now))
            for nid, node in self.nodes.items()
        }
        self.last_heartbeat = dict.fromkeys(ids, 0.0)
        #: (time, node_id, live) as the protocol observes it: a node leaves
        #: when its heartbeat is staler than the timeout and joins when it
        #: is written again, so kill-to-leave is the detection latency.
        self.membership_log: list[tuple[float, int, bool]] = []
        self._live = dict.fromkeys(ids, True)
        for group in self.groups:
            self._arm(group)
        env.process(self._membership_sentinel(interval_s), name="membership-sentinel")

    @property
    def rounds(self) -> int:
        """Group rounds fired so far."""
        return sum(g.rounds for g in self.groups)

    def _arm(self, group: MonitorGroup) -> None:
        event = Event(self.env, name=ROUND_EVENT)
        event.callbacks.append(partial(self._round, group))  # type: ignore[union-attr]
        self.env.schedule_at(event, group.phase_s + (group.rounds + 1) * self.interval_s)

    def _round(self, group: MonitorGroup, _event: Event) -> None:
        """Write every live member's snapshot and book Eq 14 for each.

        A snapshot blends the window average since the member's last
        write with the instantaneous state, so that a node that just went
        idle (or just got busy) is not misjudged for a whole interval.
        """
        now = self.env.now
        nodes, table, since, heartbeat = self.nodes, self.table, self._since, self.last_heartbeat
        written = 0
        for nid in group.members:
            node = nodes[nid]
            if not node.up:
                continue
            # TimeWeightedSignal.checkpoint and .average, inline and with
            # the same float operations: one write per member and round
            # is the monitor's whole host cost.
            cpu, disk = node.cpu.active_jobs, node.disk.active_jobs
            t0, cpu_i0, disk_i0 = since[nid]
            cpu_i = cpu._integral + cpu._value * (now - cpu._t_last)
            disk_i = disk._integral + disk._value * (now - disk._t_last)
            if now <= t0:
                cpu_win, disk_win = cpu._value, disk._value
            else:
                cpu_win = (cpu_i - cpu_i0) / (now - t0)
                disk_win = (disk_i - disk_i0) / (now - t0)
            since[nid] = (now, cpu_i, disk_i)
            table[nid] = LoadSnapshot(
                nid,
                0.5 * cpu_win + 0.5 * cpu._value,
                0.5 * disk_win + 0.5 * disk._value,
                node.active_questions,
                now,
                node.waiting_questions,
            )
            heartbeat[nid] = now
            written += 1
        if written:
            self.network.book_broadcasts(written, written * self.packet_bytes)
            if self.metrics is not None:
                self.metrics.inc(MONITOR_BROADCASTS, written)
                self.metrics.inc(MONITOR_BUSY_S, written * self.round_cost_s)
        if group.rounds == 0:  # nothing was measured before the first round
            for nid in group.members:
                self.nodes[nid].reserve_cpu(self.cpu_reservation)
        group.rounds += 1
        self._arm(group)

    def _membership_sentinel(self, interval_s: float) -> t.Generator[Event, object, None]:
        """Log pool joins/leaves from heartbeat staleness (runs forever)."""
        while True:
            yield self.env.timeout(interval_s)
            now = self.env.now
            for nid, last in self.last_heartbeat.items():
                live = now - last <= self.membership_timeout_s
                if live != self._live[nid]:
                    self._live[nid] = live
                    self.membership_log.append((now, nid, live))

    def announce(
        self, target: int, questions: int = 0, cpu: float = 0.0, disk: float = 0.0
    ) -> None:
        """Add work just sent to ``target`` to its shared entry, for every
        observer at once, until the target's next round write.  The entry
        keeps its timestamp; the broadcast books one ``S_load`` but nothing
        under ``MONITOR_*``, which counts round writes (Eq 14) only.  The
        bumped entry is a new snapshot: one already handed out by
        :meth:`view` is never changed."""
        s = self.table[target]
        self.table[target] = LoadSnapshot(
            target,
            s.cpu_load + cpu,
            s.disk_load + disk,
            s.n_questions + questions,
            s.timestamp,
            s.n_waiting + questions,
        )
        self.network.book_broadcasts(1, self.packet_bytes)

    def view(self, observer: int) -> dict[int, LoadSnapshot]:
        """The live-membership load table as seen by ``observer``: peers
        through their last write or announcement (dropped once the write
        is older than the membership timeout), and itself live."""
        now = self.env.now
        timeout = self.membership_timeout_s
        fresh = {nid: s for nid, s in self.table.items() if now - s.timestamp <= timeout}
        fresh[observer] = self.live_snapshot(observer)
        return fresh

    def live_snapshot(self, node_id: int) -> LoadSnapshot:
        """A node's *current* state: active-job counts and exact question counters."""
        node = self.nodes[node_id]
        return LoadSnapshot(
            node_id=node_id,
            cpu_load=node.cpu.active_jobs.value,
            disk_load=node.disk.active_jobs.value,
            n_questions=node.active_questions,
            timestamp=self.env.now,
            n_waiting=node.waiting_questions,
        )
