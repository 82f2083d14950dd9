"""The paper's two evaluation protocols, and the arrivals they are made of.

*Section 6.1, high load* — :func:`run_high_load`: "The system is brought
to a high load state by starting twice the number of questions that will
generate an overload state (8N, where N is the number of processors), at
intervals of time ranging between 0 and 2 seconds.  The questions were
selected randomly from the TREC-8 and TREC-9 question set ...  the same
questions and the same startup sequence for all tests."  Its ingredients
are :func:`high_load_count`, :func:`trec_mix_profiles` and
:func:`staggered_arrivals`.

*Section 6.2, low load* — :func:`run_one_at_a_time`: complex questions
executed one at a time, each alone on the cluster.

Every simulated section runs through one of these two recipes, so the
offered load is decided here and nowhere else.
"""

from __future__ import annotations

import typing as t

import numpy as np

if t.TYPE_CHECKING:  # pragma: no cover
    from ..core.qa_task import TaskResult
    from ..core.system import DistributedQASystem, SystemConfig, WorkloadReport
    from ..qa.profiles import QuestionProfile

__all__ = [
    "high_load_count",
    "poisson_arrivals",
    "run_high_load",
    "run_one_at_a_time",
    "staggered_arrivals",
    "trec_mix_profiles",
]

#: Full load is 4 simultaneous questions per node (256 MB / 25-40 MB each);
#: the paper doubles that to force overload.
QUESTIONS_PER_NODE_OVERLOAD = 8


def high_load_count(n_nodes: int) -> int:
    """The paper's high-load question count: 8 per processor."""
    return QUESTIONS_PER_NODE_OVERLOAD * n_nodes


def staggered_arrivals(
    n_questions: int,
    stagger_s: float = 2.0,
    seed: int = 0,
) -> list[float]:
    """Arrival times with inter-arrival gaps uniform in [0, stagger_s].

    Returns a non-decreasing list of absolute arrival times.  The same
    seed yields the same startup sequence, as the evaluation protocol
    requires.
    """
    if n_questions < 0:
        raise ValueError("n_questions must be non-negative")
    if stagger_s < 0:
        raise ValueError("stagger_s must be non-negative")
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.0, stagger_s, size=n_questions)
    times = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) if n_questions else []
    return [float(x) for x in times]


def trec_mix_profiles(n_questions: int, seed: int = 0) -> list:
    """The Section 6.1 workload: random TREC-8 + TREC-9 questions.

    Half the questions follow the TREC-8 population (~48 s sequential),
    half the TREC-9 population (~94 s) — a bimodal mix with heavy-tailed
    per-question work (lognormal spread 0.55), whose per-node imbalance
    the dynamic load balancing corrects.
    """
    from dataclasses import replace

    from ..qa.profiles import SyntheticProfileGenerator, SyntheticProfileParams

    rng = np.random.default_rng(seed)
    p9 = replace(
        SyntheticProfileParams(),
        ap_seconds_sigma=0.55,
        pr_disk_seconds_sigma=0.55 * 0.8,
    )
    gen9 = SyntheticProfileGenerator(p9, seed=seed * 2 + 1)
    gen8 = SyntheticProfileGenerator(p9.scaled(48.0 / 94.0), seed=seed * 2 + 2)
    profiles = []
    for qid in range(n_questions):
        gen = gen8 if rng.random() < 0.5 else gen9
        profiles.append(gen.generate(qid))
    return profiles


def run_high_load(
    system: DistributedQASystem,
    seed: int,
    n_questions: int | None = None,
    stagger_s: float = 2.0,
) -> WorkloadReport:
    """Section 6.1 on ``system``: the TREC mix at staggered arrivals.

    Runs ``n_questions`` questions (default: 8 per node, the overload
    level) drawn by :func:`trec_mix_profiles` and started by
    :func:`staggered_arrivals`, both from ``seed``.  The caller builds
    the system, so it may set a threshold or apply a failure schedule
    before the run.
    """
    if n_questions is None:
        n_questions = high_load_count(system.config.n_nodes)
    return system.run_workload(
        trec_mix_profiles(n_questions, seed=seed),
        staggered_arrivals(n_questions, stagger_s, seed=seed),
    )


def run_one_at_a_time(
    config: SystemConfig, profiles: t.Iterable[QuestionProfile]
) -> list[TaskResult]:
    """Section 6.2: each profile runs alone on a fresh ``config`` cluster."""
    from ..core.system import DistributedQASystem

    return [
        DistributedQASystem(config).run_workload([profile]).results[0]
        for profile in profiles
    ]


def poisson_arrivals(
    n_questions: int,
    rate_per_s: float,
    seed: int = 0,
) -> list[float]:
    """Poisson arrivals (the serving load generator's open loop)."""
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=n_questions)
    return [float(x) for x in np.cumsum(gaps)]
