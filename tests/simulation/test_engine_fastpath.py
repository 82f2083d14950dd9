"""Equivalence of the inlined ``Environment.run`` loops vs ``step()``.

The hot-path rewrite inlined the pop/clock/callback sequence into
``run()`` and made timeout names lazy.  These are only legal if they are
pure overhead removals: every event must still fire at the same time and
in the same order as a manual ``step()`` loop, and crashes must surface
identically.
"""

import random

import pytest

from repro.simulation import Environment
from repro.simulation.engine import EmptySchedule
from repro.simulation.events import Timeout


#: Delay mixes: continuous draws never share an instant after t=0; the
#: grid makes most hops tie, and same-instant FIFO is the only thing
#: ``step()`` and the inlined loops could disagree on.
MIXES = ("continuous", "grid")


def _chain_workload(env, record, mix, n_chains=20, chain_len=12, seed=7):
    """Seeded timeout chains; each hop appends (cid, hop, now) to record."""
    rng = random.Random(seed)
    draw = (
        (lambda: rng.random() * 5.0)
        if mix == "continuous"
        else (lambda: rng.choice((0.0, 0.5, 1.0)))
    )
    delays = [[draw() for _ in range(chain_len)] for _ in range(n_chains)]

    def chain(cid, ds):
        for hop, d in enumerate(ds):
            yield env.timeout(d)
            record.append((cid, hop, env.now))

    for cid, ds in enumerate(delays):
        env.process(chain(cid, ds))


def _step_all(env):
    while True:
        try:
            env.step()
        except EmptySchedule:
            return


class TestRunMatchesStepping:
    def test_drain_loop_fires_in_step_order(self):
        for mix in MIXES:
            stepped, ran = [], []
            env_a = Environment()
            _chain_workload(env_a, stepped, mix)
            _step_all(env_a)
            env_b = Environment()
            _chain_workload(env_b, ran, mix)
            env_b.run()
            assert ran == stepped
            assert env_b.now == env_a.now

    def test_until_event_loop_fires_in_step_order(self):
        def probe(env, record):
            for hop in range(5):
                yield env.timeout(1.0)
                record.append(("probe", hop, env.now))

        for mix in MIXES:
            stepped, ran = [], []
            env_a = Environment()
            _chain_workload(env_a, stepped, mix, n_chains=6, chain_len=8)
            target_a = env_a.process(probe(env_a, stepped))
            while not target_a.processed:
                env_a.step()

            env_b = Environment()
            _chain_workload(env_b, ran, mix, n_chains=6, chain_len=8)
            target_b = env_b.process(probe(env_b, ran))
            env_b.run(until=target_b)

            assert ran == stepped
            assert env_b.now == env_a.now

    def test_horizon_loop_fires_in_step_order(self):
        # A horizon inside both populations; on the grid it is an instant
        # events share, so "<= horizon" is exercised on a tie.
        for mix, horizon in zip(MIXES, (20.0, 4.0)):
            stepped, ran = [], []
            env_a = Environment()
            _chain_workload(env_a, stepped, mix)
            while env_a.peek() <= horizon:
                env_a.step()

            env_b = Environment()
            _chain_workload(env_b, ran, mix)
            env_b.run(until=horizon)

            assert ran == stepped and 0 < len(ran) < 20 * 12
            assert env_b.now == horizon

    def test_crash_surfaces_from_both_drivers(self):
        def bomb(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        env_a = Environment()
        env_a.process(bomb(env_a))
        with pytest.raises(ValueError, match="boom"):
            _step_all(env_a)

        env_b = Environment()
        env_b.process(bomb(env_b))
        with pytest.raises(ValueError, match="boom"):
            env_b.run()


class TestLazyTimeoutNames:
    def test_default_timeout_has_no_eager_label(self):
        env = Environment()
        to = env.timeout(1.5)
        assert to.name is None

    def test_repr_still_describes_anonymous_timeout(self):
        env = Environment()
        assert "Timeout(1.5)" in repr(env.timeout(1.5))

    def test_explicit_name_is_kept(self):
        env = Environment()
        to = Timeout(env, 2.0, name="heartbeat")
        assert to.name == "heartbeat"
        assert "heartbeat" in repr(to)

    def test_negative_delay_still_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-0.1)
