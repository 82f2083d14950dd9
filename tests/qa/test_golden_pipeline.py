"""Golden pipeline: the real Q/A pipeline's outputs, frozen as digests.

The real-pipeline twin of ``tests/simulation/test_golden_runs.py``.  A
host-only change to QP, PR, PS, PO or AP — a new kernel, a skipped
window, a cheaper data layout — must leave every answer, clip, score,
paragraph rank and work counter where it was.  Each case runs every
generated question of ``CorpusConfig(docs_per_collection=240)`` through a
fresh pipeline, over indexes built from the corpus or attached to their
packed payload under a cold vocabulary (a serving worker's view), and
hashes the ``repr`` of the ``result_fingerprint`` list into one sha256.
The stem-memo and entity-layer counters after the stream are pinned
beside it.

Two streams: ``serial`` asks each question once through
``QAPipeline.answer``; ``batched`` asks every question, every fourth one
twice in a row, in chunks of 8 through ``QAPipeline.answer_batch``.  The
digests were recorded on commit ``dd90f4e``.  ``answer_batch`` answers a
repeat within its chunk from the first occurrence and asks the caches
nothing for it, so the batched stem-memo hits are those of a serial
``answer`` pass over the stream with in-chunk repeats dropped (459 of
559 asked): 16005, not the 19870 of a stream that re-asked them.  The
memo misses once per (stem, sub-collection) pair the stream looks up,
2049 in either stream.

Nothing here may depend on the interpreter's string-hash seed; CI runs
this file again under two fixed ``PYTHONHASHSEED`` values.

To re-record after a change that is *meant* to move an answer::

    PYTHONPATH=src python tests/qa/test_golden_pipeline.py
"""

import hashlib
import pickle

import pytest

from repro.corpus import CorpusConfig, generate_corpus, generate_questions
from repro.nlp import EntityRecognizer
from repro.nlp.vocabulary import Vocabulary
from repro.qa import QAPipeline, result_fingerprint
from repro.retrieval import IndexedCorpus
from repro.retrieval.packing import attach_payload, indexes_to_payload

#: About 6 s on a 2-vCPU host, most of it generating and indexing.
pytestmark = pytest.mark.slow

CONFIG = CorpusConfig(docs_per_collection=240)

#: Digests recorded on commit dd90f4e; built and attached indexes agree.
#: ``stem_memo`` is ``(hits, misses)`` of PR's stem bitset memos, summed
#: over the sub-collections.
GOLDEN = {
    "serial": {
        "digest": "edb94ca3f7f5c4a25518f00b43d68472eb373236ce31ef7f5da9dd8f44803177",
        "stem_memo": (15554, 2049),
        "entity_layer": {"hits": 10806, "misses": 4578, "paragraphs": 4578},
    },
    "batched": {
        "digest": "ca632ffd37bbe0d2c260253122cb8b78bb282a19ff577e73fa2f5ad25f11bde8",
        "stem_memo": (16005, 2049),
        "entity_layer": {"hits": 11271, "misses": 4578, "paragraphs": 4578},
    },
}


def build_stack():
    """``(texts, recognizer, {"built": ..., "attached": ...})``."""
    corpus = generate_corpus(CONFIG)
    texts = [q.text for q in generate_questions(corpus)]
    recognizer = EntityRecognizer(
        corpus.knowledge.gazetteer(),
        extra_nationalities=corpus.knowledge.nationalities,
    )
    built = IndexedCorpus(corpus)
    payload = pickle.loads(pickle.dumps(indexes_to_payload(built.indexes)))
    attached = IndexedCorpus(
        corpus, indexes=attach_payload(corpus, payload, vocabulary=Vocabulary())
    )
    return texts, recognizer, {"built": built, "attached": attached}


def run_stream(indexed, recognizer, texts, stream):
    """Digest and counters of one stream on a fresh pipeline."""
    pipeline = QAPipeline(indexed.reconfigured(), recognizer)
    if stream == "serial":
        results = [pipeline.answer(text, qid=i) for i, text in enumerate(texts)]
    else:
        asked = []
        for i, text in enumerate(texts):
            asked += [text, text] if i % 4 == 0 else [text]
        results = []
        for lo in range(0, len(asked), 8):
            results += pipeline.answer_batch(asked[lo : lo + 8])
    fingerprints = repr([result_fingerprint(r) for r in results])
    cache = [r.cache_stats for r in pipeline.indexed.retrievers]
    return {
        "digest": hashlib.sha256(fingerprints.encode()).hexdigest(),
        "stem_memo": (
            sum(c["hits"] for c in cache),
            sum(c["misses"] for c in cache),
        ),
        "entity_layer": pipeline.ap.entity_layer_stats,
    }


@pytest.fixture(scope="module")
def stack():
    return build_stack()


@pytest.mark.parametrize("source", ["built", "attached"])
@pytest.mark.parametrize("stream", sorted(GOLDEN))
def test_golden_pipeline(stack, source, stream):
    texts, recognizer, indexed = stack
    assert run_stream(indexed[source], recognizer, texts, stream) == GOLDEN[stream]


if __name__ == "__main__":
    texts, recognizer, indexed = build_stack()
    for source in indexed:
        for stream in GOLDEN:
            print(source, stream, run_stream(indexed[source], recognizer, texts, stream))
