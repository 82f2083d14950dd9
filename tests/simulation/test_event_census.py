"""The simulator's event mix, counted at the benchmark's smallest shape."""

from repro.experiments.event_census import census
from repro.simulation.events import Event
from repro.simulation.resources import FairShareResource

KINDS = {
    "completion hop (inline)",
    "completion hop (queued)",
    "monitor resume",
    "shard publisher",
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
    # wasted work, and more than 5 % of them means a timer went eager again.
    assert stale <= 0.05 * total
