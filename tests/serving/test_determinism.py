"""Determinism regression: decisions are a pure function of the seed.

The admission controller decides against *logical* scheduled arrival
times with a fixed service estimate, so the accepted/shed sequence for a
seeded workload must be **byte-identical** across worker counts — the
same invariant the parallel experiment engine keeps for ``--jobs``.
A change that sneaks wall-clock state into admission decisions breaks
these tests immediately.
"""

import pytest

from repro.corpus import CorpusConfig
from repro.serving import (
    AdmissionConfig,
    LoadgenConfig,
    ServerConfig,
    run_loadgen,
)

#: Small corpus: these runs rebuild the serving stack per worker count.
CORPUS = CorpusConfig(
    n_collections=3, docs_per_collection=20, vocab_size=500, seed=31
)


def loadgen_config(workers: int) -> LoadgenConfig:
    """A fixed-rate sweep config; only ``workers`` varies across runs.

    The explicit ``rate_qps`` + ``est_service_s`` skip saturation
    calibration (which measures the real machine and would differ per
    worker count by design), and ``pace=False`` floods the server so the
    test is wall-clock-independent.
    """
    return LoadgenConfig(
        server=ServerConfig(
            corpus=CORPUS,
            admission=AdmissionConfig(max_queue_depth=3),
            workers=workers,
            drain_timeout_s=30.0,
        ),
        n_questions=50,
        n_unique=15,
        workload_seed=1234,
        rate_qps=120.0,
        est_service_s=0.03,
        pace=False,
        record_decisions=True,
    )


@pytest.mark.slow
def test_decision_sequence_identical_across_worker_counts():
    results = {w: run_loadgen(loadgen_config(w)) for w in (1, 2, 4)}
    runs = {w: s["runs"][0] for w, s in results.items()}

    digests = {w: r["decision_digest"] for w, r in runs.items()}
    assert len(set(digests.values())) == 1, digests

    # Not just the digest: the full decision sequences match field by
    # field, and so do the terminal ledgers.
    base = runs[1]["decisions"]
    assert len(base) == 50
    for w in (2, 4):
        assert runs[w]["decisions"] == base
    ledgers = {
        w: {k: r["ledger"][k] for k in ("answered", "shed", "drained")}
        for w, r in runs.items()
    }
    assert ledgers[1] == ledgers[2] == ledgers[4]

    # The chosen rate genuinely overloads the model: both outcomes occur,
    # otherwise this regression test would pass vacuously.
    assert runs[1]["ledger"]["shed"] > 0
    assert runs[1]["ledger"]["answered"] > 0
    for r in runs.values():
        assert r["conservation_ok"]


def test_same_seed_same_digest_same_process():
    """Two identical runs in one process agree exactly (inline workers)."""
    a = run_loadgen(loadgen_config(0))
    b = run_loadgen(loadgen_config(0))
    assert a["runs"][0]["decision_digest"] == b["runs"][0]["decision_digest"]
    assert a["runs"][0]["decisions"] == b["runs"][0]["decisions"]


def test_different_seed_different_decisions():
    """The digest actually depends on the workload seed (sanity check)."""
    base = loadgen_config(0)
    a = run_loadgen(base)
    from dataclasses import replace

    b = run_loadgen(replace(base, workload_seed=4321))
    assert (
        a["runs"][0]["decision_digest"] != b["runs"][0]["decision_digest"]
    )
