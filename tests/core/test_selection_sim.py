"""Simulated-side collection selection: routing is an input, not a knob.

A profile with no routing decision (``selected_collections is None``)
broadcasts and adds no overhead key.  A routed profile partitions PR's
SEND/ISEND/RECV fan-out over the predicted collections only, which must
shrink partition comms and show up in the trace as a ``stage:PR-select``
span whose probe cost the attribution pipeline books under dispatch.
Unrouted and routed profiles differ in nothing else (first test), so
"off" below is simply the unrouted profile set.
"""

from __future__ import annotations

from repro.core import DistributedQASystem, Strategy, SystemConfig
from repro.observability.attribution import attribute_workload
from repro.qa import SyntheticProfileGenerator, SyntheticProfileParams
from repro.workload import staggered_arrivals

N_QUESTIONS = 12
SEED = 5


def _profiles(selected_fraction=None):
    params = SyntheticProfileParams(selected_fraction=selected_fraction)
    return SyntheticProfileGenerator(params, seed=SEED).generate_many(
        N_QUESTIONS
    )


def _run(profiles, n_nodes=16, trace=False):
    system = DistributedQASystem(
        SystemConfig(
            n_nodes=n_nodes, strategy=Strategy.DQA, seed=SEED, trace=trace
        )
    )
    report = system.run_workload(
        profiles, staggered_arrivals(len(profiles), 2.0, seed=SEED)
    )
    return system, report


def test_selected_fraction_does_not_perturb_profile_rng():
    """Routing metadata rides along; every other profile field is unchanged."""
    plain = _profiles(None)
    routed = _profiles(0.5)
    for a, b in zip(plain, routed):
        assert a.selected_collections is None
        assert b.selected_collections is not None
        assert 0 < len(b.selected_collections) <= len(b.collections)
        assert a.memory_bytes == b.memory_bytes
        assert [c.paragraph_bytes for c in a.collections] == [
            c.paragraph_bytes for c in b.collections
        ]


def test_sketch_mode_shrinks_comms_and_books_overhead():
    _, off = _run(_profiles(None))
    _, on = _run(_profiles(0.5))

    def comms(report):
        return sum(
            r.overhead["keyword_send"] + r.overhead["paragraph_recv"]
            for r in report.results
        )

    # Half the fan-out means fewer and smaller PR partition transfers.
    # (Makespan is deliberately not asserted here: at this scale the
    # scheduler's migration choices dominate it.)
    assert comms(on) < comms(off)
    for r in on.results:
        assert r.overhead["pr_select"] > 0.0
    for r in off.results:
        assert "pr_select" not in r.overhead


def test_sketch_mode_attribution_accounts_for_the_probe():
    off_sys, off = _run(_profiles(None), trace=True)
    on_sys, on = _run(_profiles(0.5), trace=True)
    att_off = attribute_workload(
        off_sys.spans, off_sys.metrics, off, off_sys.config
    )
    att_on = attribute_workload(
        on_sys.spans, on_sys.metrics, on, on_sys.config
    )
    assert att_on.max_sum_error() < 1e-6
    assert att_off.max_sum_error() < 1e-6
    means_off = att_off.category_means()
    means_on = att_on.category_means()
    assert means_on["partition_comms"] < means_off["partition_comms"]
    assert means_on["dispatch"] > means_off["dispatch"]  # the probe cost
    # The routing stage is visible in the trace — of routed profiles only.
    assert any("PR-select" in name for name in _all_span_names(on_sys.spans))
    assert not any(
        "PR-select" in name for name in _all_span_names(off_sys.spans)
    )


def _all_span_names(stream):
    names = set()
    for qid in stream.question_ids():
        stack = list(stream.roots(qid))
        while stack:
            span = stack.pop()
            names.add(span.name)
            stack.extend(stream.children(span))
    return names


def test_sketch_mode_never_empties_the_fanout():
    """A decision that would keep zero collections falls back to all."""
    profiles = _profiles(0.5)
    for p in profiles:
        p.selected_collections = ()
    _, on = _run(profiles)
    _, off = _run(_profiles(None))
    assert len(on.results) == len(off.results)
    for r in on.results:
        assert not r.failed
        assert r.overhead["pr_select"] > 0.0  # probed, then kept everything
