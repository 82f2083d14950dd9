"""Cache-plane hygiene: stale-sandbox sweeping and attach contention.

Three failure modes the serving layer must survive:

* pytest sessions killed mid-run leak their per-process
  ``REPRO_CACHE_DIR`` sandboxes into the tempdir —
  :func:`sweep_stale_cache_dirs` reaps exactly the dead-owner ones;
* N worker processes attach to one v2 packed-index artifact while a
  writer deletes and regenerates it — every reader must come back with
  consistent indexes (attached or rebuilt), never a torn/corrupt read;
* an artifact write that fails part-way (a full disk) must remove its
  per-pid temp file, not leave it in the cache directory for good.
"""

import errno
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import CorpusConfig
from repro.experiments.context import (
    STALE_CACHE_PREFIX,
    corpus_cache_key,
    load_or_build_indexes,
    load_or_generate_corpus,
    sweep_stale_cache_dirs,
)


class TestStaleSweep:
    def _mkdir(self, root, name):
        d = root / name
        d.mkdir()
        (d / "corpus-deadbeef.pkl").write_bytes(b"x")
        return d

    def test_reaps_dead_pid_sandboxes_only(self, tmp_path):
        # A pid from a finished subprocess is genuinely dead.
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(proc.stdout.strip())
        dead = self._mkdir(tmp_path, f"{STALE_CACHE_PREFIX}{dead_pid}-aa00")
        live = self._mkdir(
            tmp_path, f"{STALE_CACHE_PREFIX}{os.getpid()}-bb11"
        )
        removed = sweep_stale_cache_dirs(root=tmp_path)
        assert dead in removed and not dead.exists()
        assert live not in removed and live.exists()

    def test_ignores_non_matching_names(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(proc.stdout.strip())
        # Wrong prefix, no pid segment, pid-is-not-digits: all untouched.
        keep = [
            self._mkdir(tmp_path, f"other-cache-{dead_pid}-aa"),
            self._mkdir(tmp_path, f"{STALE_CACHE_PREFIX}notapid-aa"),
            self._mkdir(tmp_path, STALE_CACHE_PREFIX.rstrip("-")),
        ]
        # A matching *file* (not dir) is also left alone.
        (tmp_path / f"{STALE_CACHE_PREFIX}{dead_pid}-ff").write_bytes(b"x")
        removed = sweep_stale_cache_dirs(root=tmp_path)
        assert removed == []
        assert all(d.exists() for d in keep)

    def test_missing_root_is_a_noop(self, tmp_path):
        assert sweep_stale_cache_dirs(root=tmp_path / "nope") == []

    def test_session_sandbox_is_registered_for_cleanup(self):
        """The conftest fixture points REPRO_CACHE_DIR at a sweepable name."""
        sandbox = os.environ.get("REPRO_CACHE_DIR", "")
        name = os.path.basename(sandbox)
        if not name.startswith(STALE_CACHE_PREFIX):
            pytest.skip("externally supplied REPRO_CACHE_DIR")
        pid_part = name[len(STALE_CACHE_PREFIX):].split("-", 1)[0]
        assert pid_part == str(os.getpid())
        assert Path(sandbox).is_dir()


CORPUS = CorpusConfig(
    n_collections=2, docs_per_collection=10, vocab_size=300, seed=77
)


def _reader(config, cache_dir, rounds, out):
    """Attach to the shared artifact repeatedly; report doc totals."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        corpus = load_or_generate_corpus(config)
        totals = []
        for _ in range(rounds):
            indexes, source, _ = load_or_build_indexes(corpus, config)
            totals.append(
                (sum(len(ix.doc_ids) for ix in indexes), source)
            )
        out.put(("ok", totals))
    except Exception as exc:  # pragma: no cover - the failure we test for
        out.put(("error", f"{type(exc).__name__}: {exc}"))


@pytest.mark.slow
def test_concurrent_attach_while_writer_regenerates(tmp_path):
    """Readers attaching mid-regeneration never observe a torn artifact."""
    cache_dir = str(tmp_path)
    config = CORPUS
    corpus = load_or_generate_corpus(config)

    # Seed the artifact once so the expected totals are known.
    old_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        indexes, _, _ = load_or_build_indexes(corpus, config)
        expected_total = sum(len(ix.doc_ids) for ix in indexes)
        artifact = tmp_path / f"index-{corpus_cache_key(config)}.pkl"
        assert artifact.exists()

        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        readers = [
            ctx.Process(
                target=_reader, args=(config, cache_dir, 6, out), daemon=True
            )
            for _ in range(3)
        ]
        for p in readers:
            p.start()
        # Writer: repeatedly delete and regenerate the artifact while the
        # readers attach.  Also interleave a deliberately corrupt payload
        # — the self-healing read path must fall back to a rebuild.
        for i in range(6):
            artifact.unlink(missing_ok=True)
            if i % 2 == 0:
                artifact.write_bytes(b"\x80corrupt")
            load_or_build_indexes(corpus, config)
        results = [out.get(timeout=120.0) for _ in readers]
        for p in readers:
            p.join(timeout=30.0)
    finally:
        if old_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_env

    for status, payload in results:
        assert status == "ok", payload
        for total, source in payload:
            assert total == expected_total
            assert source in ("cache", "built")


def test_corrupt_artifact_self_heals(tmp_path):
    old_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path)
    try:
        corpus = load_or_generate_corpus(CORPUS)
        artifact = tmp_path / f"index-{corpus_cache_key(CORPUS)}.pkl"
        artifact.write_bytes(pickle.dumps({"schema": "bogus"}))
        indexes, source, _ = load_or_build_indexes(corpus, CORPUS)
        assert source == "built"
        assert indexes
        # The healed artifact attaches next time.
        _, source2, _ = load_or_build_indexes(corpus, CORPUS)
        assert source2 == "cache"
    finally:
        if old_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_env


def _short_write(obj, fh, *args, **kwargs):
    """A ``pickle.dump`` that runs out of disk after a few bytes."""
    fh.write(b"\x80partial")
    raise OSError(errno.ENOSPC, "No space left on device")


def _refuse_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("fail", ["dump", "replace"])
@pytest.mark.parametrize("artifact", ["corpus", "index"])
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, artifact, fail):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    corpus = load_or_generate_corpus(CORPUS)
    expected = sorted(p.name for p in tmp_path.iterdir())
    if artifact == "corpus":
        (tmp_path / f"corpus-{corpus_cache_key(CORPUS)}.pkl").unlink()
        expected = []
    with monkeypatch.context() as patch:
        if fail == "dump":
            patch.setattr(pickle, "dump", _short_write)
        else:
            patch.setattr(os, "replace", _refuse_replace)
        if artifact == "corpus":
            regenerated = load_or_generate_corpus(CORPUS)
            assert regenerated.n_documents == corpus.n_documents
        else:
            indexes, source, _ = load_or_build_indexes(corpus, CORPUS)
            assert source == "built"
            assert sum(len(ix.doc_ids) for ix in indexes) == corpus.n_documents
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
