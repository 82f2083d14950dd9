"""Cold set-up in a fresh process; the parent times spawn -> ``ready``.

``setup_child.py serve <workload> <smoke>`` brings a server up the way a
user does (``QAServer(config).start()``: corpus generated, indexes built,
artifact written, workers spawned, attached and ready) against the empty
``REPRO_CACHE_DIR`` the parent chose.  ``--layers`` first walks the same
public steps one at a time and reports each, for the traced run.

``setup_child.py sim <workload> <smoke> <seed>`` generates the segment's
profiles and arrivals and constructs its systems.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


def _serve(workload: str, smoke: bool, layers: bool) -> None:
    import serve  # bench/serve.py: workload table and server configuration

    from repro.experiments.context import (
        load_or_build_indexes,
        load_or_generate_corpus,
    )
    from repro.serving import QAServer

    from harness import proc_peak_rss_mb

    spec = serve.spec_for(workload, smoke)
    report: dict[str, float] = {}
    if layers:
        t0 = time.perf_counter()
        corpus = load_or_generate_corpus(spec.corpus)
        report["corpus.generate_s"] = time.perf_counter() - t0
        _, source, seconds = load_or_build_indexes(corpus, spec.corpus)
        if source != "built":
            raise RuntimeError(f"cold cache expected, indexes came from {source!r}")
        report["context.index_build_s"] = seconds
        t0 = time.perf_counter()
        corpus = load_or_generate_corpus(spec.corpus)
        report["context.corpus_unpickle_s"] = time.perf_counter() - t0
        _, source, seconds = load_or_build_indexes(corpus, spec.corpus)
        if source != "cache":
            raise RuntimeError(f"warm cache expected, indexes were {source!r}")
        report["context.index_attach_s"] = seconds
        cache = pathlib.Path(os.environ["REPRO_CACHE_DIR"])
        report["context.artifact_mb"] = sum(
            p.stat().st_size for p in cache.iterdir()
        ) / 2**20
        del corpus
    server = QAServer(serve.server_config(spec, observability=False))
    t0 = time.perf_counter()
    server.start()
    if layers:
        report["workers.spawn_ready_s"] = time.perf_counter() - t0
        pids = list(server.pool.attach_report)
        report["workers.rss_mb_per_worker"] = sum(
            proc_peak_rss_mb(pid) for pid in pids
        ) / len(pids)
    print("ready", flush=True)
    server.drain()
    server.stop()
    print(json.dumps(report), flush=True)


def _sim(workload: str, smoke: bool, seed: int) -> None:
    import sim  # bench/sim.py

    spec = sim.spec_for(workload, smoke)
    sim.build_systems(sim.make_inputs(spec, seed))
    print("ready", flush=True)


def main(argv: list[str]) -> int:
    kind, workload, smoke = argv[0], argv[1], argv[2] == "1"
    if kind == "serve":
        _serve(workload, smoke, layers="--layers" in argv)
    elif kind == "sim":
        _sim(workload, smoke, int(argv[3]))
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
