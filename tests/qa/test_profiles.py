"""Tests for question profiles (real-pipeline and synthetic)."""

import numpy as np
import pytest

from repro.corpus import CorpusConfig, generate_corpus, generate_questions
from repro.nlp import EntityRecognizer
from repro.qa import (
    CostModel,
    QAPipeline,
    SyntheticProfileGenerator,
    SyntheticProfileParams,
    profile_question,
)
from repro.retrieval import IndexedCorpus


@pytest.fixture(scope="module")
def pipeline():
    corpus = generate_corpus(
        CorpusConfig(n_collections=3, docs_per_collection=12, vocab_size=400,
                     seed=41)
    )
    recognizer = EntityRecognizer(
        corpus.knowledge.gazetteer(),
        extra_nationalities=corpus.knowledge.nationalities,
    )
    return QAPipeline(IndexedCorpus(corpus), recognizer), generate_questions(corpus)


class TestRealProfiles:
    def test_structure(self, pipeline):
        pipe, questions = pipeline
        model = CostModel.default()
        prof = profile_question(pipe, questions[0].text, model, qid=questions[0].qid)
        assert len(prof.collections) == 3
        assert prof.qid == questions[0].qid
        assert prof.qp_cpu_s > 0
        assert prof.n_accepted == len(prof.paragraph_bytes)
        assert len(prof.paragraph_ap_cpu_s) == prof.n_accepted
        assert prof.n_retrieved >= prof.n_accepted

    def test_memory_in_paper_range(self, pipeline):
        pipe, questions = pipeline
        prof = profile_question(pipe, questions[1].text, CostModel.default())
        lo, hi = CostModel.default().memory_per_question
        assert lo <= prof.memory_bytes <= hi

    def test_aggregates_consistent(self, pipeline):
        pipe, questions = pipeline
        model = CostModel.default()
        prof = profile_question(pipe, questions[2].text, model)
        secs = prof.sequential_module_seconds(model)
        assert prof.sequential_seconds(model) == pytest.approx(sum(secs.values()))
        assert prof.ap_cpu_s == sum(prof.paragraph_ap_cpu_s)

    def test_deterministic(self, pipeline):
        pipe, questions = pipeline
        model = CostModel.default()
        a = profile_question(pipe, questions[3].text, model, qid=3)
        b = profile_question(pipe, questions[3].text, model, qid=3)
        assert a.memory_bytes == b.memory_bytes
        assert a.ap_cpu_s == b.ap_cpu_s


class TestSyntheticProfiles:
    def test_average_population_matches_table2(self):
        """Mean module times must match the paper's TREC-9 averages."""
        gen = SyntheticProfileGenerator(seed=1)
        profiles = gen.generate_many(150)
        secs = [p.sequential_module_seconds(gen.model) for p in profiles]
        total = np.mean([sum(s.values()) for s in secs])
        assert total == pytest.approx(94.0, rel=0.10)
        ap_frac = np.mean([s["AP"] for s in secs]) / total
        assert ap_frac == pytest.approx(0.697, abs=0.05)
        pr_frac = np.mean([s["PR"] for s in secs]) / total
        assert pr_frac == pytest.approx(0.265, abs=0.05)

    def test_complex_population_matches_table8(self):
        gen = SyntheticProfileGenerator(SyntheticProfileParams.complex(), seed=2)
        profiles = gen.generate_many(150)
        secs = [p.sequential_module_seconds(gen.model) for p in profiles]
        assert np.mean([s["PR"] for s in secs]) == pytest.approx(38.0, rel=0.10)
        assert np.mean([s["AP"] for s in secs]) == pytest.approx(117.5, rel=0.10)
        assert all(p.n_accepted >= 240 for p in profiles)

    def test_rank_decay_in_ap_costs(self):
        """Earlier (higher-ranked) paragraphs must be costlier on average —
        the property ISEND exploits (Section 4.1.3)."""
        gen = SyntheticProfileGenerator(
            SyntheticProfileParams.complex(), seed=3
        )
        prof = gen.generate(0)
        n = prof.n_accepted
        head = np.mean(prof.paragraph_ap_cpu_s[: n // 4])
        tail = np.mean(prof.paragraph_ap_cpu_s[-n // 4 :])
        assert head > 1.3 * tail

    def test_collection_skew_present(self):
        """PR per-collection costs vary (max/mean well above 1)."""
        gen = SyntheticProfileGenerator(
            SyntheticProfileParams.complex(), seed=4
        )
        ratios = []
        for prof in gen.generate_many(30):
            times = [
                c.cost.seconds_on(gen.model.hardware) for c in prof.collections
            ]
            ratios.append(max(times) / np.mean(times))
        assert 1.2 < np.mean(ratios) < 3.0

    def test_scaled_population(self):
        base = SyntheticProfileParams()
        small = base.scaled(0.5)
        assert small.ap_seconds_mean == pytest.approx(base.ap_seconds_mean / 2)
        assert small.n_accepted_mean == pytest.approx(base.n_accepted_mean / 2)

    def test_determinism(self):
        a = SyntheticProfileGenerator(seed=9).generate_many(5)
        b = SyntheticProfileGenerator(seed=9).generate_many(5)
        for pa, pb in zip(a, b):
            assert pa.ap_cpu_s == pb.ap_cpu_s
            assert pa.n_accepted == pb.n_accepted

    def test_qids_assigned(self):
        profs = SyntheticProfileGenerator(seed=1).generate_many(3, start_qid=10)
        assert [p.qid for p in profs] == [10, 11, 12]


def _profile_numbers(profile):
    """Every number of ``profile``: its scalars, each collection's fields,
    then the paragraph columns flattened in PO rank order."""
    yield from (
        profile.qid, profile.question_bytes, profile.keyword_bytes,
        profile.n_keywords, profile.qp_cpu_s, profile.po_cpu_s,
        profile.n_answers, profile.answer_bytes, profile.memory_bytes,
        len(profile.collections),
    )
    for c in profile.collections:
        yield from (
            c.collection_id, c.cost.cpu_s, c.cost.disk_bytes,
            c.n_paragraphs, c.paragraph_bytes, c.ps_cpu_s,
        )
    yield profile.n_accepted
    yield from profile.paragraph_bytes
    yield from profile.paragraph_ap_cpu_s


def _profiles_digest(profiles) -> str:
    """sha256 over every number of ``profiles``, each packed as a
    little-endian float64: the digest reads values, not how a profile
    holds them."""
    import hashlib
    import struct

    h = hashlib.sha256()
    for profile in profiles:
        numbers = list(_profile_numbers(profile))
        h.update(struct.pack(f"<{len(numbers)}d", *numbers))
    return h.hexdigest()


#: Value digests of three profile sets; a host-only change to how
#: profiles are built or held must reproduce them.
#: ``trec_mix_profiles(128, seed=0)``: the simulator workloads' first sub-run.
TREC_MIX_128_DIGEST = "707c64cc46290df795b2b6a9e4510d2e17dcb5c72b99a1e3e7b12c8f010e936d"
#: 30 ``SyntheticProfileParams.complex()`` profiles, generator seed 4.
COMPLEX_30_DIGEST = "a433aa370c0413bdd993f10b3df97d7ba55e05b9e75a1b3f1cb58639817e5628"
#: The real-pipeline profiles behind ``table2`` (the default experiment
#: context's first 60 questions through ``profile_question``).
TABLE2_PROFILES_DIGEST = "51d4083af89152e7eeb2e752a5762ac6c9d107c8e674fadf0c657259cf49be0a"


def test_trec_mix_profiles_are_frozen():
    from repro.workload import trec_mix_profiles

    assert _profiles_digest(trec_mix_profiles(128, seed=0)) == TREC_MIX_128_DIGEST


def test_complex_profiles_are_frozen():
    gen = SyntheticProfileGenerator(SyntheticProfileParams.complex(), seed=4)
    assert _profiles_digest(gen.generate_many(30)) == COMPLEX_30_DIGEST


def test_table2_profiles_are_frozen():
    import inspect

    from repro.experiments import default_context
    from repro.experiments.table2_module_analysis import run_table2

    n_questions = inspect.signature(run_table2).parameters["n_questions"].default
    profiles = default_context().profiles(n_questions)
    assert _profiles_digest(profiles) == TABLE2_PROFILES_DIGEST
