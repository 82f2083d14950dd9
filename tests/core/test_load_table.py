"""The load table's vector decisions against the scalar code they replaced.

The oracle below is the per-node code the dispatchers ran when the
monitor's table was a dict of snapshot objects: each decision built the
observer's view as a dict (fresh peers, itself live), evaluated Eq 1-3 once
per snapshot, ran Figure 4 or the question dispatcher's ``min`` over
``(load, node id)`` pairs, and announced each share with one scalar update.
Hypothesis draws tables of 1 to 300 nodes with stale rows (the observer's
own included), runs a random sequence of decisions and announcements on
both, and requires the same chosen node, the same ``shares`` floats
(``==``), the same ``forced_single``, and the same table and network
accounting after every step.  A second property replays the membership
sentinel's dict loop over the write times it saw and requires the same
``membership_log``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AP_WEIGHTS,
    PR_WEIGHTS,
    QA_WEIGHTS,
    Assignment,
    ClusterNode,
    MonitoringSystem,
    NodeConfig,
    QuestionDispatcher,
    meta_schedule,
    single_task_load,
)
from repro.core.meta_scheduler import _EPSILON
from repro.simulation import Environment, Network

# -- the oracle: the scalar decision code --------------------------------------


@dataclass
class LoadSnapshot:
    node_id: int
    cpu_load: float
    disk_load: float
    n_questions: int
    timestamp: float
    n_waiting: int = 0


def oracle_load(weights, snap):
    measured = weights.cpu * snap.cpu_load + weights.disk * snap.disk_load
    queued = snap.n_waiting * (weights.cpu * 0.79 + weights.disk * 0.21)
    return measured + queued


class OracleMonitor:
    """The dict-of-snapshots table, with its ``view`` and ``announce``."""

    def __init__(self, mon: MonitoringSystem) -> None:
        self.mon = mon
        t = mon.table
        self.table = {
            nid: LoadSnapshot(
                nid, float(t.cpu[nid]), float(t.disk[nid]), int(t.questions[nid]),
                float(t.written[nid]), int(t.waiting[nid]),
            )
            for nid in range(len(t.cpu))
        }
        self.bytes = mon.network.bytes_transferred
        self.broadcasts = mon.network.broadcasts_sent

    def live_snapshot(self, nid):
        node = self.mon.nodes[nid]
        return LoadSnapshot(
            nid, node.cpu.active_jobs.value, node.disk.active_jobs.value,
            node.active_questions, self.mon.env.now, node.waiting_questions,
        )

    def view(self, observer):
        now, timeout = self.mon.env.now, self.mon.membership_timeout_s
        fresh = {nid: s for nid, s in self.table.items() if now - s.timestamp <= timeout}
        fresh[observer] = self.live_snapshot(observer)
        return fresh

    def announce(self, target, questions=0, cpu=0.0, disk=0.0):
        s = self.table[target]
        self.table[target] = LoadSnapshot(
            target, s.cpu_load + cpu, s.disk_load + disk, s.n_questions + questions,
            s.timestamp, s.n_waiting + questions,
        )
        self.bytes += self.mon.packet_bytes
        self.broadcasts += 1

    def assert_matches(self):
        t = self.mon.table
        rows = [
            (s.cpu_load, s.disk_load, s.n_questions, s.n_waiting, s.timestamp)
            for s in self.table.values()
        ]
        columns = list(zip(*(c.tolist() for c in (t.cpu, t.disk, t.questions, t.waiting, t.written))))
        assert columns == rows
        assert self.mon.network.bytes_transferred == self.bytes
        assert self.mon.network.broadcasts_sent == self.broadcasts


def oracle_meta_schedule(
    table, weights, underload_margin=1.0, max_parts=None, include=None,
    stay_on=None, stay_threshold=0.0,
):
    """Figure 4 over a dict view; returns ``(shares, forced_single)``."""
    loads = {nid: oracle_load(weights, snap) for nid, snap in table.items()}
    capacity = underload_margin * single_task_load(weights)
    selected = [nid for nid, load in loads.items() if load < capacity]
    forced_single = False
    if not selected:
        _, best = min(zip(loads.values(), loads))
        if (
            stay_on is not None
            and stay_on in loads
            and best != stay_on
            and loads[stay_on] - loads[best] <= stay_threshold
        ):
            best = stay_on
        selected = [best]
        forced_single = True
    elif include is not None and include in table and include not in selected:
        selected.append(include)
    if max_parts is not None and len(selected) > max_parts:
        selected = sorted(selected, key=lambda nid: (nid != include, loads[nid], nid))[:max_parts]
    if len(selected) == 1:
        return ((selected[0], 1.0),), forced_single
    raw = {nid: max(_EPSILON * capacity, capacity - loads[nid]) for nid in selected}
    total = sum(raw.values())
    shares = tuple(
        (nid, raw[nid] / total) for nid in sorted(selected, key=lambda n: (loads[n], n))
    )
    return shares, forced_single


_QUESTION_LOAD = single_task_load(QA_WEIGHTS)


def oracle_choose(oracle, host_id, exclude, threshold):
    """The question dispatcher's decision; announces a migration."""
    table = oracle.view(host_id)
    loads = {
        nid: snap.n_questions * _QUESTION_LOAD + 0.01 * oracle_load(QA_WEIGHTS, snap)
        for nid, snap in table.items()
        if nid == host_id or nid not in exclude
    }
    _, best = min(zip(loads.values(), loads))
    if best == host_id or loads[host_id] - loads[best] <= threshold:
        return host_id
    oracle.announce(best, questions=1)
    return best


# -- the property --------------------------------------------------------------

#: Ages of a row's last write: fresh, exactly at the 3 s timeout, stale.
_AGES = (0.0, 0.0, 0.25, 1.0, 2.0, 3.0, 3.5, 7.0)
#: A small value set, so that equal loads (ties) are common.
_LEVELS = (0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 2.0)


def build_table(n, rng, stale_share, observers):
    env = Environment()
    nodes = [ClusterNode(env, i, NodeConfig(max_concurrent_questions=1)) for i in range(n)]
    # No round before t = 10: each row is then written forward from its
    # seed at t = 0, as only rounds write it (never backwards in time).
    mon = MonitoringSystem(env, Network(env), nodes, interval_s=100.0, membership_timeout_s=3.0)
    env.run(until=10.0)
    t = mon.table

    def value():
        return rng.choice(_LEVELS) if rng.random() < 0.5 else rng.uniform(0.0, 3.0)

    for nid in range(n):
        age = rng.choice(_AGES[5:]) if rng.random() < stale_share else rng.choice(_AGES[:5])
        t.written[nid] = 10.0 - age
        t.cpu[nid], t.disk[nid] = value(), value()
        hosted = rng.randrange(4)
        t.questions[nid], t.waiting[nid] = hosted, rng.randrange(hosted + 1)
    for nid in observers:  # live state differs from the written row
        node = nodes[nid]
        node.cpu.active_jobs.set(env.now, float(rng.randrange(3)))
        node.disk.active_jobs.set(env.now, float(rng.randrange(2)))
        node.active_questions = rng.randrange(6)
        for _ in range(rng.randrange(3)):
            node.admit_question()
    return mon, nodes


decision = st.one_of(
    st.tuples(
        st.just("meta"),
        st.sampled_from(["AP", "PR"]),
        st.sampled_from([0.5, 1.0, 1.5, 3.0]),  # margin
        st.sampled_from([None, None, 1, 2, 8]),  # max_parts
        st.sampled_from(["host", "host", "other", None]),  # include
        st.sampled_from(["host", "host", "other", None]),  # stay_on
        st.integers(0, 2**16),
    ),
    st.tuples(st.just("choose"), st.integers(0, 3), st.integers(0, 2**16)),
    st.tuples(st.just("announce"), st.integers(0, 2**16)),
)


@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    stale_share=st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]),
    steps=st.lists(decision, min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_vector_decisions_equal_the_scalar_oracle(n, seed, stale_share, steps):
    rng = random.Random(seed)
    mon, nodes = build_table(n, rng, stale_share, observers=range(n))
    oracle = OracleMonitor(mon)
    dispatcher = QuestionDispatcher(mon)
    for step in steps:
        kind, step_seed = step[0], step[-1]
        r = random.Random(step_seed)
        host = r.randrange(n)
        if kind == "meta":
            _, module, margin, max_parts, include, stay_on, _ = step
            weights = AP_WEIGHTS if module == "AP" else PR_WEIGHTS
            pick = {"host": host, "other": r.randrange(n), None: None}
            include, stay_on = pick[include], pick[stay_on]
            threshold = single_task_load(weights) * r.choice([0.0, 1.0, 4.0])
            kwargs = dict(
                underload_margin=margin, max_parts=max_parts, include=include,
                stay_on=stay_on, stay_threshold=threshold,
            )
            want = oracle_meta_schedule(oracle.view(host), weights, **kwargs)
            got = meta_schedule(mon.loads(weights, host), weights, host, mon.fresh(), **kwargs)
            assert (got.shares, got.forced_single) == want
            mon.announce_shares(got, weights)
            for nid, share in want[0]:
                oracle.announce(nid, cpu=weights.cpu * share, disk=weights.disk * share)
        elif kind == "choose":
            exclude = frozenset(r.sample(range(n), min(n, step[1])))
            want = oracle_choose(oracle, host, exclude, dispatcher.migration_threshold)
            assert dispatcher.choose(host, exclude) == want
        else:
            target = r.randrange(n)
            questions, cpu = r.randrange(3), r.choice([0.0, 0.3, 1.0])
            mon.announce(target, questions=questions, cpu=cpu, disk=cpu / 2)
            oracle.announce(target, questions=questions, cpu=cpu, disk=cpu / 2)
        oracle.assert_matches()


def test_wide_and_few_share_announcements_agree():
    """Three shares take the scalar stores and nine the indexed add (or
    the scalar stores again when the assignment has no columns); each
    leaves the same columns as one scalar update per share."""
    for width, with_columns in ((3, True), (9, True), (9, False)):
        rng = random.Random(width)
        mon, _ = build_table(12, rng, 0.0, observers=())
        oracle = OracleMonitor(mon)
        shares = tuple((nid, rng.random()) for nid in rng.sample(range(12), width))
        columns = tuple(np.array(c) for c in zip(*shares)) if with_columns else None
        mon.announce_shares(Assignment(shares, False, columns), PR_WEIGHTS)
        for nid, share in shares:
            oracle.announce(nid, cpu=PR_WEIGHTS.cpu * share, disk=PR_WEIGHTS.disk * share)
        oracle.assert_matches()


# -- the membership sentinel -------------------------------------------------------


class RecordingMonitor(MonitoringSystem):
    """Records the write times the sentinel compares at each of its wakes."""

    def _membership_sentinel(self, interval_s):
        self.seen = []
        inner = super()._membership_sentinel(interval_s)
        event = next(inner)
        while True:
            value = yield event
            self.seen.append((self.env.now, self.table.written.tolist()))
            event = inner.send(value)


def oracle_membership_log(seen, n, timeout):
    log, live_now = [], dict.fromkeys(range(n), True)
    for now, written in seen:
        heartbeat = dict(enumerate(written))
        for nid, last in heartbeat.items():
            live = now - last <= timeout
            if live != live_now[nid]:
                live_now[nid] = live
                log.append((now, nid, live))
    return log


@given(
    n=st.integers(1, 40),
    shards=st.integers(0, 7),
    timeout=st.sampled_from([0.5, 1.0, 2.5, 3.0, 4.0]),
    outages=st.lists(
        st.tuples(st.integers(0, 39), st.floats(0.0, 25.0), st.floats(0.1, 12.0)),
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_vector_sentinel_logs_what_the_loop_logged(n, shards, timeout, outages):
    env = Environment()
    nodes = [ClusterNode(env, i) for i in range(n)]
    mon = RecordingMonitor(env, Network(env), nodes, membership_timeout_s=timeout, shards=shards)

    def outage(nid, start, length):
        yield env.timeout(start)
        nodes[nid].up = False
        yield env.timeout(length)
        nodes[nid].up = True

    for nid, start, length in outages:
        env.process(outage(nid % n, start, length))
    env.run(until=40.0)
    assert mon.seen
    assert mon.membership_log == oracle_membership_log(mon.seen, n, timeout)
    assert all(type(nid) is int and type(live) is bool for _, nid, live in mon.membership_log)
