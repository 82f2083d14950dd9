"""The inputs are a function of the seed, and of nothing else."""

from types import SimpleNamespace

import pytest

import serve
import sim

QUESTIONS = [SimpleNamespace(qid=100 + i, text=f"question {i}?") for i in range(500)]


def _stream(slices):
    return [item for part, _ in slices for item in part]


def test_closed_stream_is_a_seeded_shuffle_asking_each_question_once():
    spec = serve.SPECS["serve_closed_uniq"]
    a = serve.make_slices(spec, QUESTIONS, seed=3)
    assert a == serve.make_slices(spec, QUESTIONS, seed=3)
    assert a != serve.make_slices(spec, QUESTIONS, seed=4)
    assert len(a) == spec.slices and all(schedule == [] for _, schedule in a)
    assert sorted(qid for qid, _ in _stream(a)) == [
        q.qid for q in QUESTIONS[: spec.n_questions]
    ]


def test_closed_stream_refuses_a_corpus_with_too_few_questions():
    spec = serve.SPECS["serve_closed_uniq"]
    with pytest.raises(ValueError):
        serve.make_slices(spec, QUESTIONS[:10], seed=1)


def test_open_stream_and_schedule_repeat_per_seed():
    spec = serve.SPECS["serve_open_zipf"]
    a = serve.make_slices(spec, QUESTIONS, seed=5)
    assert a == serve.make_slices(spec, QUESTIONS, seed=5)
    assert a != serve.make_slices(spec, QUESTIONS, seed=6)
    assert len(_stream(a)) == spec.n_questions
    popular = {q.qid for q in QUESTIONS[: spec.n_unique]}
    assert {qid for qid, _ in _stream(a)} <= popular
    for part, schedule in a:
        assert len(part) == len(schedule)
        assert schedule == sorted(schedule)
        # The offered rate is the same for every seed and every slice.
        assert schedule[-1] == pytest.approx(len(part) / spec.rate_qps)


def test_decision_digest_keys_on_position_not_lifetime_sequence():
    def decisions(first_seq):
        return [
            SimpleNamespace(
                seq=first_seq + i, qid=i, accepted=True, shed_reason=None,
                predicted_wait_s=0.001 * i + 1e-9 * first_seq, queue_depth=0,
            )
            for i in range(5)
        ]

    assert serve.decision_digest(decisions(0)) == serve.decision_digest(decisions(400))
    changed = decisions(0)
    changed[2].accepted = False
    assert serve.decision_digest(changed) != serve.decision_digest(decisions(0))


def test_sim_seed_reorders_a_fixed_body_of_work():
    spec = sim.SMOKE_SPECS["sim_paper16"]
    a = sim.make_inputs(spec, seed=2)
    b = sim.make_inputs(spec, seed=2)
    c = sim.make_inputs(spec, seed=3)
    assert len(a) == spec.sub_runs

    def order(inputs):
        return [[p.qid for p in profiles] for profiles, _, _ in inputs]

    assert order(a) == order(b) and order(a) != order(c)
    # Same questions, same arrival instants, whatever the seed.
    assert [sorted(qids) for qids in order(a)] == [sorted(qids) for qids in order(c)]
    assert [x[1] for x in a] == [x[1] for x in c]


def test_sim_inputs_pass_no_legacy_switch():
    for _, _, config in sim.make_inputs(sim.SMOKE_SPECS["sim_scale128"], seed=1):
        assert config.queue_impl == type(config)().queue_impl
        assert config.monitor_shards >= 1


def test_sim_segments_simulate_identical_numbers():
    inputs = sim.make_inputs(sim.SMOKE_SPECS["sim_scale128"], seed=1)
    first, second = sim.run_segment(inputs), sim.run_segment(inputs)
    assert first.fingerprint() == second.fingerprint()
    assert len(first.pieces) == len(inputs)
    assert sim.count_failed(first) == 0
