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
and one event per group and interval writes every live member's row
into one shared table; the row's write time is the member's heartbeat.

The table is five flat per-node columns (:class:`LoadTable`), so that a
write stores numbers and a dispatch decision reads whole columns as NumPy
vectors.  Every observer sees the same table, minus entries older than
the membership timeout, with itself live.  A dispatcher that sends work
to a node announces it (:meth:`MonitoringSystem.announce`): the target's
entry is bumped in that one table, for every observer at once, and
charged as one ``S_load`` broadcast.  The target's next round write,
which already counts the announced work, replaces it.
"""

from __future__ import annotations

import math
import typing as t
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..model import ModelParameters, monitoring_round_s
from ..observability.metrics import MetricsRegistry
from ..observability.names import MONITOR_BROADCASTS, MONITOR_BUSY_S
from ..simulation.engine import Environment
from ..simulation.events import Event
from ..simulation.network import Network
from .load import ResourceWeights, load_function
from .meta_scheduler import Assignment
from .node import ClusterNode

__all__ = ["LoadTable", "MonitoringSystem", "auto_shard_count"]

#: ``Event.name`` of a group's per-interval write.
ROUND_EVENT = "monitor round"
#: Assignments up to this wide are announced with scalar stores; wider
#: ones with one indexed add per column.
_FEW_SHARES = 8


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


class LoadTable:
    """The shared load table: one row per node id, five flat columns.

    Each column is an ``array('d')``, where the monitor's scalar stores
    are cheap, exposed without a copy as a NumPy view of the same memory,
    which is what a dispatch decision reads.  The monitor is the only
    writer: a round write sets a member's whole row, an announcement adds
    to one.  Integer counts are stored as floats, which holds them
    exactly.
    """

    __slots__ = (
        "cpu", "disk", "questions", "waiting", "written",
        "_cpu", "_disk", "_questions", "_waiting", "_written",
    )

    def __init__(self, n: int) -> None:
        self._cpu, self._disk, self._questions, self._waiting, self._written = (
            array("d", bytes(8 * n)) for _ in range(5)
        )
        #: Written (or announced) average active-job counts on CPU and disk.
        self.cpu = np.frombuffer(self._cpu)
        self.disk = np.frombuffer(self._disk)
        #: Hosted questions (running or queued), and those queued.
        self.questions = np.frombuffer(self._questions)
        self.waiting = np.frombuffer(self._waiting)
        #: Time of the row's last round write: the node's heartbeat.
        self.written = np.frombuffer(self._written)


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
        ids = list(self.nodes)
        if ids != list(range(len(ids))):
            raise ValueError("node ids must be 0..N-1 in order (they index the load table)")
        #: Per node id, what a round write reads: the node and its CPU and
        #: disk active-job signals.
        self._sources = [
            (node, node.cpu.active_jobs, node.disk.active_jobs) for node in self.nodes.values()
        ]
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes
        self.membership_timeout_s = membership_timeout_s
        self.metrics = metrics
        n, k = len(ids), min(max(1, shards), len(ids))
        self.groups: list[MonitorGroup] = []
        for g in range(k):
            members = tuple(ids[g * n // k : (g + 1) * n // k])
            self.groups.append(
                MonitorGroup(interval_s * g / k, members, packet_bytes * len(members))
            )
        #: Eq 14 per node and interval; each row written books it.
        self.round_cost_s = monitoring_round_s(
            ModelParameters(t_load=measure_cpu_s, s_load=packet_bytes, b_net=network.bandwidth_bps),
            n,
        )
        self.cpu_reservation = measure_cpu_s / interval_s
        network.reserve(
            sum(g.nbytes for g in self.groups) / (network.bandwidth_bps / 8.0 * interval_s)
        )
        #: Each node's latest written row, seeded idle at time 0 so that
        #: dispatch works before the first round.
        self.table = LoadTable(n)
        #: A lower bound on the oldest write time: while ``now`` minus it
        #: is within the timeout, every row is fresh and no decision
        #: builds a freshness mask.  Writes only move rows forward, so an
        #: old bound stays a bound until :meth:`_all_fresh` refreshes it.
        self._oldest = 0.0
        #: Per member, (time, cpu integral, disk integral) at its last
        #: write: the start of the window its next write averages over.
        now = env.now
        self._since = [(now, cpu.integral(now), disk.integral(now)) for _, cpu, disk in self._sources]
        #: (time, node_id, live) as the protocol observes it: a node leaves
        #: when its heartbeat is staler than the timeout and joins when it
        #: is written again, so kill-to-leave is the detection latency.
        self.membership_log: list[tuple[float, int, bool]] = []
        self._live = np.ones(n, dtype=bool)
        self._all_live = True
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
        """Write every live member's row and book Eq 14 for each.

        A row's loads blend the window average since the member's last
        write with the instantaneous state, so that a node that just went
        idle (or just got busy) is not misjudged for a whole interval.
        """
        now = self.env.now
        sources, since, table = self._sources, self._since, self.table
        cpu_t, disk_t, questions_t, waiting_t, written_t = (
            table._cpu, table._disk, table._questions, table._waiting, table._written
        )
        written = 0
        for nid in group.members:
            node, cpu, disk = sources[nid]
            if not node.up:
                continue
            # The window average is the difference of two integral
            # readings over the window's length (the instantaneous value
            # when the window is empty), read inline off the signals: one
            # write per member and round is the monitor's whole host cost.
            t0, cpu_i0, disk_i0 = since[nid]
            cpu_i = cpu._integral + cpu._value * (now - cpu._t_last)
            disk_i = disk._integral + disk._value * (now - disk._t_last)
            if now <= t0:
                cpu_win, disk_win = cpu._value, disk._value
            else:
                cpu_win = (cpu_i - cpu_i0) / (now - t0)
                disk_win = (disk_i - disk_i0) / (now - t0)
            since[nid] = (now, cpu_i, disk_i)
            cpu_t[nid] = 0.5 * cpu_win + 0.5 * cpu._value
            disk_t[nid] = 0.5 * disk_win + 0.5 * disk._value
            questions_t[nid] = node.active_questions
            waiting_t[nid] = node.waiting_questions
            written_t[nid] = now
            written += 1
        if written:
            self.network.book_broadcasts(written, written * self.packet_bytes)
            if self.metrics is not None:
                self.metrics.inc(MONITOR_BROADCASTS, written)
                self.metrics.inc(MONITOR_BUSY_S, written * self.round_cost_s)
        if group.rounds == 0:  # nothing was measured before the first round
            for nid in group.members:
                sources[nid][0].reserve_cpu(self.cpu_reservation)
        group.rounds += 1
        self._arm(group)

    def _membership_sentinel(self, interval_s: float) -> t.Generator[Event, object, None]:
        """Log pool joins/leaves from write-time staleness (runs forever)."""
        written, timeout, log = self.table.written, self.membership_timeout_s, self.membership_log
        while True:
            yield self.env.timeout(interval_s)
            now = self.env.now
            if self._all_live and self._all_fresh(now):
                continue
            live = now - written <= timeout
            for nid in (live != self._live).nonzero()[0].tolist():
                log.append((now, nid, bool(live[nid])))
            self._live = live
            self._all_live = bool(live.all())

    def announce(
        self, target: int, questions: int = 0, cpu: float = 0.0, disk: float = 0.0
    ) -> None:
        """Add work just sent to ``target`` to its shared entry, for every
        observer at once, until the target's next round write.  The entry
        keeps its write time; the broadcast books one ``S_load`` but
        nothing under ``MONITOR_*``, which counts round writes (Eq 14)
        only."""
        table = self.table
        table._cpu[target] += cpu
        table._disk[target] += disk
        table._questions[target] += questions
        table._waiting[target] += questions
        self.network.book_broadcasts(1, self.packet_bytes)

    def announce_shares(self, assignment: Assignment, weights: ResourceWeights) -> None:
        """Announce each ``(node, share)`` of a module's assignment: the
        share's CPU and disk load (``weights`` times the share) on the
        node's entry and one ``S_load`` broadcast, in share order.  A wide
        assignment is one indexed add per column."""
        table, wcpu, wdisk = self.table, weights.cpu, weights.disk
        shares = assignment.shares
        if len(shares) <= _FEW_SHARES or assignment.columns is None:
            cpu_t, disk_t = table._cpu, table._disk
            for nid, share in shares:
                cpu_t[nid] += wcpu * share
                disk_t[nid] += wdisk * share
        else:
            nids, fractions = assignment.columns
            table.cpu[nids] += wcpu * fractions
            table.disk[nids] += wdisk * fractions
        network, packet = self.network, self.packet_bytes
        nbytes = network.bytes_transferred
        for _ in shares:  # one float add per broadcast, as each one books
            nbytes += packet
        network.bytes_transferred = nbytes
        network.broadcasts_sent += len(shares)

    def fresh(self) -> np.ndarray | None:
        """Mask of the rows written within the membership timeout (the
        live pool as every observer sees it), or ``None`` when all are."""
        now = self.env.now
        if self._all_fresh(now):
            return None
        return now - self.table.written <= self.membership_timeout_s

    def _all_fresh(self, now: float) -> bool:
        """Whether every row was written within the membership timeout.

        Exact, because ``now - w`` never decreases as ``w`` falls: the
        oldest row is the stalest.  The bound is refreshed from the
        column only when it has lapsed.
        """
        timeout = self.membership_timeout_s
        if now - self._oldest <= timeout:
            return True
        self._oldest = float(self.table.written.min())
        return now - self._oldest <= timeout

    def live_entry(self, node_id: int) -> tuple[float, float, int, int]:
        """A node's *current* state as a table row: active-job counts on
        CPU and disk, hosted and waiting questions."""
        node, cpu, disk = self._sources[node_id]
        return cpu._value, disk._value, node.active_questions, node.waiting_questions

    def loads(self, weights: ResourceWeights, observer: int) -> np.ndarray:
        """Eq 1-3 for every row of the table as ``observer`` sees it: its
        peers through their last write or announcement, itself live.  A
        new array, which the caller may overwrite."""
        table = self.table
        loads = load_function(weights, table.cpu, table.disk, table.waiting)
        cpu, disk, _, waiting = self.live_entry(observer)
        loads[observer] = load_function(weights, cpu, disk, waiting)
        return loads
