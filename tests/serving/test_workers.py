"""The process pool's start-up and reply path.

The serving parent loads no corpus and no index: its workers do, and on
a cold cache exactly one of them builds while the others wait on the
cache directory's lock and attach.  Replies are collected through one
standing selector, so nothing in the parent calls
``multiprocessing.connection.wait`` or ``Connection.poll`` once the pool
is up.
"""

import contextlib
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import time

import pytest

from repro.corpus import CorpusConfig
from repro.experiments import context
from repro.serving import AdmissionConfig, QAServer, ServerConfig
from repro.serving.workers import ProcessWorkerPool, _digest_answers

CORPUS = CorpusConfig(
    n_collections=3, docs_per_collection=20, vocab_size=500, seed=31
)


@contextlib.contextmanager
def per_call_waits_refused():
    """Make every per-call wait in this process raise, until exit.

    ``stop`` stays outside: ``Process.join`` waits on its sentinel.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("the pool waited outside its standing selector")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiprocessing.connection, "wait", refuse)
        mp.setattr(multiprocessing.connection.Connection, "poll", refuse)
        yield


def _sha256s(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


class TestStandingSelector:
    def test_answers_and_drain_without_a_per_call_wait(
        self, shared_pipeline, shared_questions
    ):
        server = QAServer(
            ServerConfig(
                corpus=CORPUS,
                admission=AdmissionConfig(
                    max_concurrent=64, max_queue_depth=4096, est_service_s=1e-4
                ),
                workers=2,
                drain_timeout_s=30.0,
                spans_enabled=False,
            )
        )
        asked = shared_questions[:24]
        server.start()
        try:
            with per_call_waits_refused():
                for i, q in enumerate(asked):
                    server.submit(q.text, qid=q.qid, arrival_s=1e-3 * i)
                deadline = time.monotonic() + 30.0
                while server.in_flight and time.monotonic() < deadline:
                    if not server.poll():
                        time.sleep(0.001)
                ledger = server.drain()
        finally:
            server.stop()
        assert ledger.balanced
        assert (ledger.submitted, ledger.answered, ledger.drained) == (24, 24, 0)
        assert server.pool.lost_workers == []
        expected = {
            q.qid: _digest_answers(shared_pipeline.answer(q.text).answers)
            for q in asked
        }
        assert {r.qid: r.answers for r in server.responses} == expected

    def test_a_killed_workers_eof_arrives_through_the_selector(self):
        pool = ProcessWorkerPool(CORPUS, 2)
        pool.start()
        try:
            with per_call_waits_refused():
                victim = next(iter(pool.attach_report))
                os.kill(victim, signal.SIGKILL)
                deadline = time.monotonic() + 20.0
                while not pool.lost_workers and time.monotonic() < deadline:
                    assert pool.poll() == []
                assert pool.lost_workers == [victim]
                assert pool.idle_workers == 1
                # Unregistered at EOF: a dead pipe is never reported again.
                assert pool.poll() == [] and pool.lost_workers == [victim]
        finally:
            pool.stop()


class TestColdStart:
    def test_one_worker_builds_and_the_parent_loads_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        log = tmp_path / "loader-pids.log"

        def logged(loader):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return loader(*args, **kwargs)

            return wrapper

        for name in ("load_or_generate_corpus", "load_or_build_indexes"):
            monkeypatch.setattr(context, name, logged(getattr(context, name)))
        pool = ProcessWorkerPool(CORPUS, 2)
        try:
            pool.start()
            pool.drain(10.0)
        finally:
            pool.stop()
        sources = sorted(source for source, _ in pool.attach_report.values())
        assert sources == ["built", "cache"]
        loader_pids = {int(line) for line in log.read_text().split()}
        assert loader_pids and loader_pids <= set(pool.attach_report)
        assert os.getpid() not in loader_pids

    def test_racing_builders_build_once_and_write_what_a_serial_build_writes(
        self, tmp_path
    ):
        fork = multiprocessing.get_context("fork")

        def build(cache, barrier, replies):
            os.environ["REPRO_CACHE_DIR"] = str(cache)
            barrier.wait()
            replies.send(context.build_serving_context(CORPUS).index_source)

        def run(cache, n):
            barrier = fork.Barrier(n)
            reader, writer = fork.Pipe(duplex=False)
            procs = [
                fork.Process(target=build, args=(cache, barrier, writer))
                for _ in range(n)
            ]
            for p in procs:
                p.start()
            sources = sorted(reader.recv() for _ in procs)
            for p in procs:
                p.join(30.0)
                assert p.exitcode == 0
            return sources

        raced, serial = tmp_path / "raced", tmp_path / "serial"
        assert run(raced, 2) == ["built", "cache"]
        assert run(serial, 1) == ["built"]
        key = context.corpus_cache_key(CORPUS)
        digests = _sha256s(raced)
        # The directory lock adds no file to the cache.
        assert sorted(digests) == [f"corpus-{key}.pkl", f"index-{key}.pkl"]
        assert digests == _sha256s(serial)

    def test_without_a_disk_cache_every_worker_builds(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        pool = ProcessWorkerPool(CORPUS, 2)
        try:
            pool.start()
            pool.drain(10.0)
        finally:
            pool.stop()
        assert [s for s, _ in pool.attach_report.values()] == ["built", "built"]
