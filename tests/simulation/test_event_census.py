"""The simulator's event mix, counted on a small Section 6.1 run."""

from repro.experiments.event_census import census
from repro.simulation.events import Event
from repro.simulation.resources import FairShareResource

KINDS = {
    "completion hop (inline)",
    "completion hop (queued)",
    "monitor round",
    "task/puller resume",
    "process bootstrap",
    "other (conditions, sentinels)",
} | {
    f"wakeup {resource} ({state})"
    for resource in ("cpu", "disk", "network")
    for state in ("live", "stale")
}


def test_stale_wakeups_stay_rare_and_every_kind_is_accounted():
    unpatched = (Event._run_callbacks, FairShareResource.use)
    counts = census(4, 32, 101)
    assert (Event._run_callbacks, FairShareResource.use) == unpatched
    assert set(counts) <= KINDS
    total = sum(counts.values())
    stale = sum(n for kind, n in counts.items() if kind.endswith("(stale)"))
    # Lazy fair-share timers (PR 15): a wakeup that completes nothing is
    # wasted work.  Here 8.2 per question, 6.8 % of fired events; an eager
    # timer (one pushed at every membership change) makes them about 77 %.
    # The share was bounded at 5 % while the load monitor's own 1 ms jobs
    # and broadcasts, all live, were two fifths of the events; the plane
    # charges them now, so the count is bounded as well as the share.
    assert stale <= 0.10 * total
    assert stale <= 10 * 32


def test_process_bootstraps_follow_chunks_not_nodes():
    # A question starts one task, one executor per PR/AP chunk and at
    # most one RECV puller per chunk: 25 bootstraps per question here.
    # One puller on every selected node, most of them exiting without a
    # chunk, made it 44 on 32 nodes and 80 on 64.
    counts = census(32, 16, 101)
    assert counts["process bootstrap"] <= 30 * 16
