"""Shared fixtures: one session-scoped corpus/index/pipeline stack.

Corpus generation and indexing dominate test-suite wall clock, and
several modules independently rebuilt the same (or an equivalent)
stack.  The fixtures here build the canonical test corpus — 3
collections x 20 docs, vocab 500, seed 31 — exactly once per session;
they are read-only from the tests' point of view, so sharing them is
safe.  Tests that genuinely need a different corpus shape keep their
own local fixtures.
"""

import atexit
import os
import secrets
import shutil
import tempfile

import pytest

from repro.corpus import CorpusConfig, generate_corpus, generate_questions
from repro.nlp import EntityRecognizer
from repro.nlp.stemming import SHARED_STEM_CACHE, StemCache
from repro.qa import QAPipeline
from repro.retrieval import IndexedCorpus

#: The canonical test-corpus shape (kept in sync with the docstring).
SHARED_CORPUS_CONFIG = CorpusConfig(
    n_collections=3, docs_per_collection=20, vocab_size=500, seed=31
)


@pytest.fixture(scope="session", autouse=True)
def _cache_sandbox():
    """Point REPRO_CACHE_DIR at a per-session sandbox, and clean it up.

    Every pytest session writes its packed-index artifacts into its own
    ``repro-test-cache-<pid>-<token>`` directory so concurrent sessions
    never share artifacts.  Cleanup is belt-and-braces: the fixture
    finalizer handles normal exits, an ``atexit`` hook handles most
    abnormal ones, and — because neither runs when the process is
    SIGKILLed — each session starts by sweeping sandboxes whose owning
    pid is dead (``sweep_stale_cache_dirs``).  An externally supplied
    REPRO_CACHE_DIR is respected untouched (CI points it at a shared
    cache on purpose).
    """
    from repro.experiments.context import (
        STALE_CACHE_PREFIX,
        sweep_stale_cache_dirs,
    )

    if os.environ.get("REPRO_CACHE_DIR") is not None:
        yield os.environ["REPRO_CACHE_DIR"]
        return
    sweep_stale_cache_dirs()
    sandbox = os.path.join(
        tempfile.gettempdir(),
        f"{STALE_CACHE_PREFIX}{os.getpid()}-{secrets.token_hex(4)}",
    )
    os.makedirs(sandbox, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = sandbox

    def _reap() -> None:  # dedicated hook so unregister targets only us
        shutil.rmtree(sandbox, ignore_errors=True)

    atexit.register(_reap)
    try:
        yield sandbox
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)
        _reap()
        atexit.unregister(_reap)


@pytest.fixture(scope="session")
def shared_corpus():
    """Session-wide generated corpus (3/20/500, seed 31)."""
    return generate_corpus(SHARED_CORPUS_CONFIG)


@pytest.fixture(scope="session")
def shared_indexed_corpus(shared_corpus):
    """The shared corpus wrapped in an IndexedCorpus (built once)."""
    return IndexedCorpus(shared_corpus)


@pytest.fixture(scope="session")
def shared_pipeline(shared_corpus, shared_indexed_corpus):
    """A QAPipeline over the shared index, with the matching recognizer."""
    recognizer = EntityRecognizer(
        shared_corpus.knowledge.gazetteer(),
        extra_nationalities=shared_corpus.knowledge.nationalities,
    )
    return QAPipeline(shared_indexed_corpus, recognizer)


@pytest.fixture(scope="session")
def shared_questions(shared_corpus):
    """Generated questions for the shared corpus."""
    return generate_questions(shared_corpus)


@pytest.fixture()
def stem_lookups(monkeypatch):
    """Every word passed to the shared stem cache while the test runs, in
    order; clear the list to start a new recording."""
    words: list[str] = []
    real = StemCache.__call__

    def recording(self, word):
        if self is SHARED_STEM_CACHE:
            words.append(word)
        return real(self, word)

    monkeypatch.setattr(StemCache, "__call__", recording)
    return words
