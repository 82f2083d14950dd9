"""Distributed load monitoring (Section 3.1).

"Periodically each load monitor updates its local CPU and disk load and
broadcasts the information on the local interconnection network.  Thus
every processor is aware not only of its own load but of the load of every
other active processor ...  if load information is not received from a
processor in a predefined time, that processor is removed from the system
pool.  A processor automatically joins the pool when it starts
broadcasting load information."

Each node runs a :class:`LoadMonitor` process; broadcasts consume real
(simulated) network bandwidth, so monitoring overhead scales with node
count exactly as the analytical model's ``S_load * N / B_net`` term says.
Peer tables are per-node and only as fresh as the last received broadcast
— scheduling decisions operate on stale data, as in reality.

Sharded mode (``shards >= 1``) replaces the all-to-all broadcast with a
two-level plane for large clusters: each node uploads a *delta* to its
shard-local aggregator (a small packet when little changed, the full
``S_load`` otherwise), and each aggregator periodically broadcasts its
merged member table — the model's ``t_load + N_k * S_load / B_net`` cost
appears as an explicit per-shard term, summing to the same ``N * S_load``
wire total, while per-interval table maintenance drops from O(N^2) writes
to O(N).  Schedulers then read O(shards) published tables instead of N
full ones; optimistic same-interval bumps live in per-observer overlays
that expire as fresher publishes arrive.
"""

from __future__ import annotations

import math
import typing as t
from dataclasses import dataclass, replace

from ..observability.metrics import MetricsRegistry
from ..observability.names import (
    MONITOR_BROADCASTS,
    MONITOR_BUSY_S,
    MONITOR_SHARD_PUBLISHES,
)
from ..simulation.engine import Environment
from ..simulation.events import Event
from ..simulation.network import Network, TransferFailed
from .load import LoadSnapshot
from .node import ClusterNode

__all__ = ["LoadMonitor", "MonitoringSystem", "auto_shard_count"]


def auto_shard_count(n_nodes: int) -> int:
    """A good default aggregator count: ~sqrt(N) balances the per-shard
    publish cost ``N_k * S_load / B_net`` against the number of publishes."""
    return max(1, round(math.sqrt(max(1, n_nodes))))


@dataclass(slots=True)
class _Bump:
    """Optimistic per-observer adjustment awaiting the next publish."""

    as_of: float
    n_questions: int = 0
    n_waiting: int = 0
    cpu_load: float = 0.0
    disk_load: float = 0.0


class LoadMonitor:
    """The per-node load monitoring process."""

    def __init__(
        self,
        system: "MonitoringSystem",
        node: ClusterNode,
        interval_s: float = 1.0,
        packet_bytes: float = 512.0,
        measure_cpu_s: float = 0.001,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.system = system
        self.node = node
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes
        self.measure_cpu_s = measure_cpu_s
        self.metrics = metrics
        self.broadcasts = 0
        self._proc = node.env.process(
            self._run(), name=f"load-monitor[{node.node_id}]"
        )

    def _run(self) -> t.Generator[Event, object, None]:
        env = self.node.env
        checkpoints = self.node.load_checkpoints()
        while True:
            yield env.timeout(self.interval_s)
            if not self.node.up:
                continue
            round_start = env.now
            # (i) inspect the kernel for the local load.  The report
            # blends the window average with the instantaneous state so
            # that a node that just went idle (or just got busy) is not
            # misjudged for a whole broadcast interval.
            if self.measure_cpu_s > 0:
                yield self.node.cpu.use(self.measure_cpu_s).event
            cpu_win, disk_win = self.node.loads_since(checkpoints)
            checkpoints = self.node.load_checkpoints()
            cpu_load = 0.5 * cpu_win + 0.5 * self.node.cpu.active_jobs.value
            disk_load = 0.5 * disk_win + 0.5 * self.node.disk.active_jobs.value
            snapshot = LoadSnapshot(
                node_id=self.node.node_id,
                cpu_load=cpu_load,
                disk_load=disk_load,
                n_questions=self.node.active_questions,
                timestamp=env.now,
                n_waiting=self.node.waiting_questions,
            )
            if self.system.sharded:
                # (ii') upload the delta to the shard aggregator; the
                # aggregator's periodic publish carries it to the pool.
                try:
                    yield from self.system.upload(snapshot)
                except TransferFailed:
                    continue
            else:
                # (ii) broadcast on the interconnection network
                yield from self.system.network.broadcast(
                    self.node.node_id, self.packet_bytes
                )
                # (iii) peers store the received load information
                self.system.deliver(snapshot)
            self.broadcasts += 1
            if self.metrics is not None:
                # Busy time = measurement CPU + broadcast elapsed; this
                # is the measured counterpart of Eq 14's per-interval
                # ``t_load + N·S_load/B_net`` monitoring cost.
                self.metrics.inc(MONITOR_BROADCASTS)
                self.metrics.inc(MONITOR_BUSY_S, env.now - round_start)


class MonitoringSystem:
    """All nodes' load tables plus the membership protocol."""

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
    ) -> None:
        self.env = env
        self.network = network
        self.nodes = {n.node_id: n for n in nodes}
        self.membership_timeout_s = membership_timeout_s
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes
        self.metrics = metrics
        #: ``shards >= 1`` switches from the paper's all-to-all broadcast
        #: to shard-local aggregators (clamped: no point in more shards
        #: than nodes).
        self.n_shards = min(shards, len(nodes)) if shards > 0 else 0
        self.sharded = self.n_shards > 0
        #: observer_node_id -> {observed_node_id: snapshot}
        self.tables: dict[int, dict[int, LoadSnapshot]] = {
            n.node_id: {} for n in nodes
        }
        idle = {
            n.node_id: LoadSnapshot(
                node_id=n.node_id,
                cpu_load=0.0,
                disk_load=0.0,
                n_questions=0,
                timestamp=0.0,
            )
            for n in nodes
        }
        if self.sharded:
            node_ids = [n.node_id for n in nodes]
            #: node_id -> shard index (contiguous slices keep shards even).
            self._shard_of = {
                nid: i * self.n_shards // len(node_ids)
                for i, nid in enumerate(node_ids)
            }
            self._members: list[list[int]] = [
                [] for _ in range(self.n_shards)
            ]
            for nid, shard in self._shard_of.items():
                self._members[shard].append(nid)
            #: Aggregator-side tables: uploads land in ``working``; each
            #: publish copies working -> published, which is what
            #: observers actually read (publish delay is the sharded
            #: plane's extra staleness, visible to schedulers as in
            #: reality).  Seeded idle so dispatch works before round one.
            self._working: list[dict[int, LoadSnapshot]] = [
                {nid: idle[nid] for nid in members}
                for members in self._members
            ]
            self._published: list[dict[int, LoadSnapshot]] = [
                dict(table) for table in self._working
            ]
            self._pub_gen = 0
            self._merged_cache: tuple[int, dict[int, LoadSnapshot]] = (
                -1,
                {},
            )
            #: observer -> {target: optimistic bump} (see note_* methods).
            self._overlays: dict[int, dict[int, _Bump]] = {
                nid: {} for nid in node_ids
            }
            #: Each node's own latest measurement (``local_snapshot``).
            self._self_reports: dict[int, LoadSnapshot] = dict(idle)
            #: Last snapshot actually shipped, for delta significance.
            self._last_sent: dict[int, LoadSnapshot] = {}
            for shard in range(self.n_shards):
                env.process(
                    self._shard_publisher(shard),
                    name=f"monitor-shard[{shard}]",
                )
        self.monitors = [
            LoadMonitor(
                self,
                n,
                interval_s=interval_s,
                packet_bytes=packet_bytes,
                metrics=metrics,
            )
            for n in nodes
        ]
        #: Last heartbeat seen from each node (any observer).
        self.last_broadcast: dict[int, float] = {n.node_id: 0.0 for n in nodes}
        #: Membership transitions as the protocol itself would observe
        #: them: (time, node_id, live).  A node "leaves" when its
        #: heartbeat goes stale past the membership timeout and "joins"
        #: when it broadcasts again — so the gap between an injected kill
        #: and the logged leave is the protocol's detection latency.
        self.membership_log: list[tuple[float, int, bool]] = []
        self._live: dict[int, bool] = {n.node_id: True for n in nodes}
        env.process(
            self._membership_sentinel(interval_s), name="membership-sentinel"
        )
        if not self.sharded:
            # Seed per-observer tables with idle snapshots so dispatch
            # works before the first broadcast round.  (Sharded mode seeds
            # the per-shard tables instead — O(N), not O(N^2).)
            for nid in self.tables:
                self.tables[nid].update(idle)

    def deliver(self, snapshot: LoadSnapshot) -> None:
        """A broadcast arrived: every up node (and the sender) records it.

        In sharded mode the snapshot lands in the sender's shard working
        table instead (one write, published to observers on the shard's
        next publish tick).
        """
        self.last_broadcast[snapshot.node_id] = snapshot.timestamp
        if self.sharded:
            self._working[self._shard_of[snapshot.node_id]][
                snapshot.node_id
            ] = snapshot
            self._self_reports[snapshot.node_id] = snapshot
            return
        for nid, node in self.nodes.items():
            if node.up or nid == snapshot.node_id:
                self.tables[nid][snapshot.node_id] = snapshot

    # -- sharded plane -------------------------------------------------------
    def upload(self, snapshot: LoadSnapshot) -> t.Generator[Event, object, None]:
        """Ship a node's snapshot to its shard aggregator (delta transfer).

        A full ``S_load`` packet goes out when the report changed
        significantly since the last upload; otherwise a small "still the
        same" delta (1/8 packet) refreshes the heartbeat.  Raises
        :class:`TransferFailed` if the sender dies mid-transfer — the
        caller just skips this round, exactly like a lost broadcast.
        """
        nid = snapshot.node_id
        shard = self._shard_of[nid]
        prev = self._last_sent.get(nid)
        significant = (
            prev is None
            or snapshot.n_questions != prev.n_questions
            or snapshot.n_waiting != prev.n_waiting
            or abs(snapshot.cpu_load - prev.cpu_load) >= 0.5
            or abs(snapshot.disk_load - prev.disk_load) >= 0.5
        )
        nbytes = self.packet_bytes if significant else self.packet_bytes / 8
        yield from self.network.transfer(nid, ("monitor-shard", shard), nbytes)
        self._last_sent[nid] = snapshot
        self._working[shard][nid] = snapshot
        self._self_reports[nid] = snapshot
        self.last_broadcast[nid] = snapshot.timestamp

    def _shard_publisher(
        self, shard: int
    ) -> t.Generator[Event, object, None]:
        """Aggregator process: broadcast the shard's merged table each interval.

        The broadcast costs ``N_k * S_load`` bytes on the shared medium —
        the model's per-shard ``t_load + N_k * S_load / B_net`` term made
        explicit; summed over shards the wire total matches the paper's
        ``N * S_load``.  Publishers are phase-staggered so the k broadcasts
        don't collide on the same instant.
        """
        members = self._members[shard]
        yield self.env.timeout(
            self.interval_s * (shard + 1) / (self.n_shards + 1)
        )
        while True:
            yield from self.network.broadcast(
                ("monitor-shard", shard), self.packet_bytes * len(members)
            )
            self._published[shard] = dict(self._working[shard])
            self._pub_gen += 1
            if self.metrics is not None:
                self.metrics.inc(MONITOR_SHARD_PUBLISHES)
            yield self.env.timeout(self.interval_s)

    def _merged(self) -> dict[int, LoadSnapshot]:
        """Union of the published shard tables (cached per publish gen)."""
        gen, merged = self._merged_cache
        if gen != self._pub_gen:
            merged = {}
            for table in self._published:
                merged.update(table)
            self._merged_cache = (self._pub_gen, merged)
        return merged

    def note_question_assignment(self, observer: int, target: int) -> None:
        """Optimistically bump ``target``'s question counters as seen by
        ``observer`` so same-interval dispatches don't dog-pile one node.
        """
        if self.sharded:
            self._bump(observer, target, n_questions=1, n_waiting=1)
            return
        snap = self.tables[observer].get(target)
        if snap is not None:
            self.tables[observer][target] = replace(
                snap,
                n_questions=snap.n_questions + 1,
                n_waiting=snap.n_waiting + 1,
            )

    def note_load_share(
        self, observer: int, target: int, cpu: float, disk: float
    ) -> None:
        """Optimistically add expected cpu/disk load to ``observer``'s view
        of ``target`` (used when work is fanned out to peers)."""
        if self.sharded:
            self._bump(observer, target, cpu_load=cpu, disk_load=disk)
            return
        tbl = self.tables[observer]
        snap = tbl.get(target)
        if snap is not None:
            tbl[target] = replace(
                snap,
                cpu_load=snap.cpu_load + cpu,
                disk_load=snap.disk_load + disk,
            )

    def _bump(
        self,
        observer: int,
        target: int,
        n_questions: int = 0,
        n_waiting: int = 0,
        cpu_load: float = 0.0,
        disk_load: float = 0.0,
    ) -> None:
        """Accumulate an overlay bump; it expires once a publish carries a
        snapshot measured after the bump was recorded (the real load then
        already includes the dispatched work)."""
        overlay = self._overlays[observer]
        bump = overlay.get(target)
        if bump is None:
            bump = overlay[target] = _Bump(as_of=self.env.now)
        else:
            bump.as_of = self.env.now
        bump.n_questions += n_questions
        bump.n_waiting += n_waiting
        bump.cpu_load += cpu_load
        bump.disk_load += disk_load

    def _membership_sentinel(
        self, interval_s: float
    ) -> t.Generator[Event, object, None]:
        """Log pool joins/leaves from heartbeat staleness (runs forever)."""
        while True:
            yield self.env.timeout(interval_s)
            now = self.env.now
            for nid, last in self.last_broadcast.items():
                live = now - last <= self.membership_timeout_s
                if live != self._live[nid]:
                    self._live[nid] = live
                    self.membership_log.append((now, nid, live))

    def view(self, observer: int) -> dict[int, LoadSnapshot]:
        """The live-membership load table as seen by ``observer``.

        Entries older than the membership timeout are dropped — that node
        has left the pool as far as ``observer`` is concerned.  The
        observer sees *itself* live (local kernel state costs nothing),
        peers through their last broadcast.

        Sharded mode reads the O(shards) published tables (merged once per
        publish generation, then cached) instead of a per-observer O(N)
        table, and applies the observer's optimistic bumps on top.
        """
        now = self.env.now
        fresh: dict[int, LoadSnapshot] = {}
        if self.sharded:
            timeout = self.membership_timeout_s
            overlay = self._overlays[observer]
            for nid, snap in self._merged().items():
                if nid == observer:
                    continue
                if now - snap.timestamp > timeout:
                    continue
                bump = overlay.get(nid)
                if bump is not None:
                    if snap.timestamp > bump.as_of:
                        # A measurement taken after the bump already
                        # reflects the dispatched work — retire the bump.
                        del overlay[nid]
                    else:
                        snap = replace(
                            snap,
                            cpu_load=snap.cpu_load + bump.cpu_load,
                            disk_load=snap.disk_load + bump.disk_load,
                            n_questions=snap.n_questions + bump.n_questions,
                            n_waiting=snap.n_waiting + bump.n_waiting,
                        )
                fresh[nid] = snap
            fresh[observer] = self.live_snapshot(observer)
            return fresh
        for nid, snap in self.tables[observer].items():
            if nid == observer:
                fresh[nid] = self.live_snapshot(observer)
            elif now - snap.timestamp <= self.membership_timeout_s:
                fresh[nid] = snap
        return fresh

    def live_snapshot(self, node_id: int) -> LoadSnapshot:
        """A snapshot of a node's *current* state (not broadcast-delayed).

        Instantaneous resource loads are the current active-job counts;
        question counters are exact.
        """
        node = self.nodes[node_id]
        return LoadSnapshot(
            node_id=node_id,
            cpu_load=node.cpu.active_jobs.value,
            disk_load=node.disk.active_jobs.value,
            n_questions=node.active_questions,
            timestamp=self.env.now,
            n_waiting=node.waiting_questions,
        )

    def local_snapshot(self, node_id: int) -> LoadSnapshot:
        """The node's latest view of itself."""
        if self.sharded:
            return self._self_reports[node_id]
        return self.tables[node_id][node_id]
