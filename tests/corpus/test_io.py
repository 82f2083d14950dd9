"""Round-trip tests for corpus and profile persistence."""

import hashlib

import pytest

from repro.corpus import CorpusConfig, generate_corpus, generate_questions
from repro.corpus.io import load_corpus, save_corpus
from repro.qa import SyntheticProfileGenerator
from repro.qa.profile_io import load_profiles, save_profiles
from tests.qa.test_profiles import _profile_numbers


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(
        CorpusConfig(n_collections=2, docs_per_collection=6, vocab_size=300,
                     seed=91)
    )


class TestCorpusRoundTrip:
    def test_documents_identical(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.n_documents == corpus.n_documents
        for a, b in zip(corpus.all_documents(), loaded.all_documents()):
            assert a.doc_id == b.doc_id
            assert a.text == b.text
            assert a.planted == b.planted

    def test_knowledge_identical(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert list(loaded.knowledge.entities) == list(corpus.knowledge.entities)
        assert loaded.knowledge.facts == corpus.knowledge.facts
        assert loaded.knowledge.nationalities == corpus.knowledge.nationalities

    def test_config_and_vocab_identical(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.config == corpus.config
        assert loaded.vocabulary == corpus.vocabulary

    def test_gzip_variant(self, corpus, tmp_path):
        path = tmp_path / "corpus.json.gz"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.size_bytes == corpus.size_bytes
        # Compressed file should actually be smaller than plain JSON.
        plain = tmp_path / "corpus.json"
        save_corpus(corpus, plain)
        assert path.stat().st_size < plain.stat().st_size

    def test_questions_regenerate_identically(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        a = generate_questions(corpus)
        b = generate_questions(loaded)
        assert [(q.text, q.expected_answer) for q in a] == [
            (q.text, q.expected_answer) for q in b
        ]

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 999}')
        with pytest.raises(ValueError, match="format version"):
            load_corpus(path)


#: sha256 of ``save_profiles`` output (plain JSON) for
#: ``SyntheticProfileGenerator(seed=4).generate_many(5)``: the on-disk
#: format, and every number in it, must not move.
SAVED_PROFILES_SHA256 = (
    "0c3b21aab5aaff5878e0f02b8705d9ce337e83139be901939180013d8e200cb7"
)


class TestProfileRoundTrip:
    def test_profiles_identical(self, tmp_path):
        profiles = SyntheticProfileGenerator(seed=4).generate_many(5)
        for name in ("profiles.json", "profiles.json.gz"):
            path = tmp_path / name
            save_profiles(profiles, path)
            loaded = load_profiles(path)
            assert len(loaded) == 5
            for a, b in zip(profiles, loaded):
                assert list(_profile_numbers(b)) == list(_profile_numbers(a))

    def test_saved_bytes_are_frozen(self, tmp_path):
        path = tmp_path / "profiles.json"
        save_profiles(SyntheticProfileGenerator(seed=4).generate_many(5), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SAVED_PROFILES_SHA256

    def test_loaded_profiles_run_in_simulation(self, tmp_path):
        from repro.core import DistributedQASystem, SystemConfig

        profiles = SyntheticProfileGenerator(seed=4).generate_many(2)
        path = tmp_path / "profiles.json.gz"
        save_profiles(profiles, path)
        loaded = load_profiles(path)
        report = DistributedQASystem(SystemConfig(n_nodes=2)).run_workload(loaded)
        assert report.n_questions == 2

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": -1}')
        with pytest.raises(ValueError, match="format version"):
            load_profiles(path)
