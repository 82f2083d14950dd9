"""Shared experiment context: corpus, pipeline, and workloads.

Builds (and memoizes per process) the moderately expensive shared
artefacts — the generated corpus, its indexes, the Q/A pipeline, and the
real-pipeline question profiles — so that every benchmark does not pay
corpus generation again.

Two cache layers sit under :func:`build_context`:

* an in-process ``lru_cache`` keyed by the (hashable, frozen)
  :class:`~repro.corpus.CorpusConfig`, so repeated builds within one
  process — including every parallel worker, which inherits the parent's
  warm cache under a fork start method — are free;
* an on-disk artifact cache keyed by :func:`corpus_cache_key` (a hash of
  the config repr plus a format version) holding **two** artifacts per
  config: the raw corpus (unpickling is ~100x faster than regenerating)
  and, since format v2, the **packed index payload**
  (:mod:`repro.retrieval.packing`).  The packed index is a handful of
  flat array buffers, so it deserializes roughly an order of magnitude
  faster than it rebuilds — a cold worker *attaches* to the index one
  process on the machine built, instead of re-paying tokenize + stem +
  intern per process.

The disk cache is best-effort and self-healing: a missing directory,
corrupt pickle, version mismatch, or an index payload that does not fit
the corpus silently falls back to regeneration, and writes are atomic
(``os.replace`` of a per-pid temp file) so parallel workers racing on a
cold cache cannot observe torn files.  Set the ``REPRO_CACHE_DIR``
environment variable to relocate it, or to the empty string to disable
it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
import time
import typing as t
from dataclasses import dataclass, field
from pathlib import Path

from ..corpus import (
    Corpus,
    CorpusConfig,
    TrecQuestion,
    generate_corpus,
    generate_questions,
)
from ..nlp.entities import EntityRecognizer
from ..nlp.keywords import select_keywords
from ..nlp.vocabulary import Vocabulary
from ..qa import (
    CostModel,
    QAPipeline,
    QuestionProfile,
    SyntheticProfileGenerator,
    SyntheticProfileParams,
    profile_question,
)
from ..retrieval import (
    CollectionIndex,
    IndexedCorpus,
    attach_payload,
    indexes_to_payload,
)

__all__ = [
    "ExperimentContext",
    "build_context",
    "build_serving_context",
    "corpus_cache_key",
    "default_context",
    "index_cache_selftest",
    "load_or_build_indexes",
    "load_or_generate_corpus",
    "complex_profiles",
    "sweep_stale_cache_dirs",
]

#: Bump when a pickled artifact layout changes; stale entries are ignored.
#: v2 added the packed-index payload next to the corpus pickle.
_CACHE_FORMAT = 2


@dataclass(slots=True)
class ExperimentContext:
    """Everything the real-pipeline experiments share."""

    corpus: Corpus
    indexed: IndexedCorpus
    recognizer: EntityRecognizer
    pipeline: QAPipeline
    questions: list[TrecQuestion]
    model: CostModel
    #: How the indexes came to be: "built" (tokenized from the corpus) or
    #: "cache" (attached to the packed on-disk payload), and the seconds
    #: that took — the build-vs-attach gap the v2 artifact exists for.
    index_source: str = "built"
    index_seconds: float = field(default=0.0, compare=False)

    def profiles(
        self, n: int, seed_offset: int = 0
    ) -> list[QuestionProfile]:
        """Real-pipeline profiles for the first ``n`` generated questions."""
        out = []
        for q in self.questions[seed_offset : seed_offset + n]:
            out.append(
                profile_question(self.pipeline, q.text, self.model, qid=q.qid)
            )
        return out


# -- on-disk corpus artifact cache ---------------------------------------------
def corpus_cache_key(config: CorpusConfig) -> str:
    """Stable cache key for a corpus config (hash of repr + format version).

    ``CorpusConfig`` is a frozen dataclass, so its repr enumerates every
    generation knob; two configs share a key iff they generate identical
    corpora.
    """
    payload = f"repro-corpus-v{_CACHE_FORMAT}:{config!r}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def corpus_cache_dir() -> Path | None:
    """The artifact cache directory, or None when caching is disabled.

    ``REPRO_CACHE_DIR`` overrides the default (a ``repro-cache`` folder
    under the system temp dir); setting it to the empty string disables
    the disk cache entirely.
    """
    root = os.environ.get("REPRO_CACHE_DIR")
    if root == "":
        return None
    if root is None:
        root = os.path.join(tempfile.gettempdir(), "repro-cache")
    return Path(root)


def load_or_generate_corpus(config: CorpusConfig) -> Corpus:
    """Return the corpus for ``config``, via the disk cache when possible."""
    directory = corpus_cache_dir()
    if directory is None:
        return generate_corpus(config)
    path = directory / f"corpus-{corpus_cache_key(config)}.pkl"
    try:
        with open(path, "rb") as fh:
            cached = pickle.load(fh)
        if isinstance(cached, Corpus):
            return cached
    except FileNotFoundError:
        pass
    except Exception:
        # Corrupt or unreadable entry: drop it and regenerate.
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
    corpus = generate_corpus(config)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".corpus-{corpus_cache_key(config)}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(corpus, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort; the generated corpus is still good
    return corpus


def _gauge_index_metrics(
    metrics: t.Any, indexes: list[CollectionIndex], source: str, seconds: float
) -> None:
    """Set the packed-index gauges on ``metrics`` (a MetricsRegistry)."""
    from ..observability.names import (
        INDEX_ATTACH_S,
        INDEX_BUILD_S,
        INDEX_MEMORY_BYTES,
        VOCABULARY_SIZE,
    )

    name = INDEX_ATTACH_S if source == "cache" else INDEX_BUILD_S
    metrics.gauge(name).set(seconds)
    metrics.gauge(INDEX_MEMORY_BYTES).set(
        float(sum(ix.stats.memory_bytes for ix in indexes))
    )
    if indexes:
        metrics.gauge(VOCABULARY_SIZE).set(float(len(indexes[0].vocab)))


def load_or_build_indexes(
    corpus: Corpus, config: CorpusConfig, metrics: t.Any = None
) -> tuple[list[CollectionIndex], str, float]:
    """Collection indexes for ``corpus``, attaching to the v2 disk artifact.

    Returns ``(indexes, source, seconds)`` where ``source`` is ``"cache"``
    when the packed payload was attached and ``"built"`` when the indexes
    were (re)built from the corpus text.  Any payload problem — missing
    file, corrupt pickle, schema mismatch, or a payload that does not fit
    this corpus — is treated as a cache miss: the entry is dropped,
    indexes are rebuilt, and a fresh payload is written atomically.

    ``metrics`` (a :class:`~repro.observability.metrics.MetricsRegistry`)
    optionally receives the canonical build/attach/memory gauges.
    """
    directory = corpus_cache_dir()
    path = (
        None
        if directory is None
        else directory / f"index-{corpus_cache_key(config)}.pkl"
    )
    if path is not None:
        start = time.perf_counter()
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            indexes = attach_payload(corpus, payload)
            elapsed = time.perf_counter() - start
            if metrics is not None:
                _gauge_index_metrics(metrics, indexes, "cache", elapsed)
            return indexes, "cache", elapsed
        except FileNotFoundError:
            pass
        except Exception:
            # Corrupt, stale-schema, or corpus-mismatched entry: self-heal.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
    start = time.perf_counter()
    indexes = [CollectionIndex(coll) for coll in corpus.collections]
    elapsed = time.perf_counter() - start
    if metrics is not None:
        _gauge_index_metrics(metrics, indexes, "built", elapsed)
    if path is not None:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            tmp = directory / f".index-{corpus_cache_key(config)}.{os.getpid()}.tmp"
            with open(tmp, "wb") as fh:
                pickle.dump(
                    indexes_to_payload(indexes),
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp, path)
        except OSError:
            pass  # cache is best-effort; the built indexes are still good
    return indexes, "built", elapsed


# -- context construction -------------------------------------------------------
@functools.lru_cache(maxsize=4)
def build_context(
    config: CorpusConfig, max_questions: int | None = None
) -> ExperimentContext:
    """Build (or recall) the full experiment context for ``config``.

    Memoized per process; the corpus and its packed indexes additionally
    come from the on-disk artifact cache, so a cold process attaches to
    both instead of regenerating either.
    """
    corpus = load_or_generate_corpus(config)
    indexes, index_source, index_seconds = load_or_build_indexes(corpus, config)
    indexed = IndexedCorpus(corpus, indexes=indexes)
    recognizer = EntityRecognizer(
        corpus.knowledge.gazetteer(),
        extra_nationalities=corpus.knowledge.nationalities,
    )
    pipeline = QAPipeline(indexed, recognizer)
    if max_questions is None:
        questions = generate_questions(corpus)
    else:
        questions = generate_questions(corpus, max_questions=max_questions)
    return ExperimentContext(
        corpus=corpus,
        indexed=indexed,
        recognizer=recognizer,
        pipeline=pipeline,
        questions=questions,
        model=CostModel.default(),
        index_source=index_source,
        index_seconds=index_seconds,
    )


def build_serving_context(
    config: CorpusConfig, metrics: t.Any = None
) -> ExperimentContext:
    """Worker-side context: attach to the cached artifacts, skip questions.

    Serving workers receive question *text* over the request queue, so
    unlike :func:`build_context` they never need the generated question
    set — only a queryable pipeline.  A worker on a warm machine pays
    one corpus unpickle plus one packed-payload attach (both from the v2
    disk artifact its parent wrote), no tokenize/stem/intern rebuild.
    Not memoized: each worker process calls it exactly once.
    """
    corpus = load_or_generate_corpus(config)
    indexes, index_source, index_seconds = load_or_build_indexes(
        corpus, config, metrics
    )
    indexed = IndexedCorpus(corpus, indexes=indexes)
    recognizer = EntityRecognizer(
        corpus.knowledge.gazetteer(),
        extra_nationalities=corpus.knowledge.nationalities,
    )
    return ExperimentContext(
        corpus=corpus,
        indexed=indexed,
        recognizer=recognizer,
        pipeline=QAPipeline(indexed, recognizer, metrics=metrics),
        questions=[],
        model=CostModel.default(),
        index_source=index_source,
        index_seconds=index_seconds,
    )


#: Naming scheme of per-process cache sandboxes (the test suite's
#: ``REPRO_CACHE_DIR``): ``<prefix><pid>-<token>`` in the system tempdir.
STALE_CACHE_PREFIX = "repro-test-cache-"


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` currently names a live process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, just not ours
        return True
    except OSError:
        return True  # be conservative: never sweep on uncertainty
    return True


def sweep_stale_cache_dirs(
    root: str | Path | None = None, prefix: str = STALE_CACHE_PREFIX
) -> list[Path]:
    """Remove per-process cache sandboxes whose owning process is gone.

    The test suite gives every pytest session its own ``REPRO_CACHE_DIR``
    named ``<prefix><pid>-<token>`` and registers ``atexit`` cleanup —
    but ``atexit`` never runs when the process is killed, so orphaned
    sandboxes accumulate in the tempdir.  This sweep (run at the start of
    the next session) deletes any sandbox whose embedded pid no longer
    names a live process.  Directories that do not match the strict
    ``<prefix><digits>-...`` shape are left alone.

    Returns the directories removed.
    """
    import shutil

    base = Path(root) if root is not None else Path(tempfile.gettempdir())
    removed: list[Path] = []
    try:
        entries = list(base.iterdir())
    except OSError:
        return removed
    for entry in entries:
        name = entry.name
        if not name.startswith(prefix):
            continue
        pid_part = name[len(prefix):].split("-", 1)[0]
        if not pid_part.isdigit():
            continue
        if _pid_alive(int(pid_part)):
            continue
        if not entry.is_dir():
            continue
        shutil.rmtree(entry, ignore_errors=True)
        if not entry.exists():
            removed.append(entry)
    return removed


def index_cache_selftest(
    config: CorpusConfig | None = None, n_questions: int = 12
) -> dict[str, t.Any]:
    """Cold-vs-warm round-trip check for the v2 packed-index artifact.

    Builds the indexes from scratch, serializes them, attaches the
    payload under a *fresh* vocabulary (a cold worker's view), and
    verifies two properties CI gates on:

    * ``roundtrip_identical`` — re-serializing the attached indexes under
      their own vocabulary reproduces the original payload byte for byte;
    * ``queries_identical`` — built and attached indexes return identical
      matched docs, paragraph keys, and work counters for the first
      ``n_questions`` generated questions.
    """
    config = config or CorpusConfig(
        n_collections=2, docs_per_collection=20, vocab_size=500, seed=17
    )
    corpus = load_or_generate_corpus(config)
    built = [CollectionIndex(coll) for coll in corpus.collections]
    blob = pickle.dumps(
        indexes_to_payload(built), protocol=pickle.HIGHEST_PROTOCOL
    )
    cold_vocab = Vocabulary()
    attached = attach_payload(corpus, pickle.loads(blob), vocabulary=cold_vocab)
    blob_again = pickle.dumps(
        indexes_to_payload(attached, vocabulary=cold_vocab),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    roundtrip_identical = blob == blob_again

    recognizer = EntityRecognizer(
        corpus.knowledge.gazetteer(),
        extra_nationalities=corpus.knowledge.nationalities,
    )
    corpus_built = IndexedCorpus(corpus, indexes=built)
    corpus_attached = IndexedCorpus(corpus, indexes=attached)
    queries_identical = True
    for q in generate_questions(corpus, max_questions=n_questions):
        keywords = select_keywords(q.text, recognizer)
        for a, b in zip(
            corpus_built.retrieve_all(keywords),
            corpus_attached.retrieve_all(keywords),
        ):
            if (
                a.matched_docs != b.matched_docs
                or [p.key for p in a.paragraphs] != [p.key for p in b.paragraphs]
                or a.postings_scanned != b.postings_scanned
                or a.doc_bytes_read != b.doc_bytes_read
            ):
                queries_identical = False
    return {
        "payload_bytes": len(blob),
        "roundtrip_identical": roundtrip_identical,
        "queries_identical": queries_identical,
        "ok": roundtrip_identical and queries_identical,
    }


def default_context(seed: int = 42) -> ExperimentContext:
    """The memoized default experiment context."""
    return build_context(CorpusConfig(seed=seed))


def complex_profiles(n: int, seed: int = 3) -> list[QuestionProfile]:
    """Synthetic Table 8-population profiles (complex questions).

    The paper's intra-question experiments select 307 questions "complex
    enough to justify distribution on all nodes"; this generator samples
    that population directly (DESIGN.md §2's calibrated substitution).
    """
    gen = SyntheticProfileGenerator(SyntheticProfileParams.complex(), seed=seed)
    return gen.generate_many(n)
