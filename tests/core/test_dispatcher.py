"""Tests for the question dispatcher."""

import pytest

from repro.core import ClusterNode, MonitoringSystem, QuestionDispatcher
from repro.simulation import Environment, Network


def build(env, n=3):
    net = Network(env)
    nodes = [ClusterNode(env, i) for i in range(n)]
    mon = MonitoringSystem(env, net, nodes)
    return nodes, mon, QuestionDispatcher(mon)


class TestChoose:
    def test_balanced_cluster_stays_home(self):
        env = Environment()
        nodes, mon, dispatcher = build(env)
        assert dispatcher.choose(0) == 0
        assert dispatcher.migrations == 0
        assert dispatcher.decisions == 1

    def test_overloaded_host_migrates_to_idle(self):
        env = Environment()
        nodes, mon, dispatcher = build(env)
        nodes[0].active_questions = 5
        target = dispatcher.choose(0)
        assert target != 0
        assert dispatcher.migrations == 1

    def test_one_question_difference_not_migrated(self):
        """The useless-migration rule: difference must exceed one average
        question's load."""
        env = Environment()
        nodes, mon, dispatcher = build(env)
        nodes[0].active_questions = 1
        assert dispatcher.choose(0) == 0

    def test_two_question_difference_migrates(self):
        env = Environment()
        nodes, mon, dispatcher = build(env)
        nodes[0].active_questions = 2
        assert dispatcher.choose(0) != 0

    def test_optimistic_bump_prevents_stampede(self):
        """Several dispatch decisions within one broadcast interval must
        spread across targets, not all pile on the same node."""
        env = Environment()
        nodes, mon, dispatcher = build(env, n=3)
        nodes[0].active_questions = 8
        first = dispatcher.choose(0)
        second = dispatcher.choose(0)
        assert first != second

    def test_different_hosts_spread_within_one_interval(self):
        """A migration is announced in the shared table, so a second host
        deciding before the next round does not pick the same target."""
        env = Environment()
        nodes, mon, dispatcher = build(env, n=4)
        nodes[0].active_questions = 8
        nodes[1].active_questions = 8
        env.run(until=1.5)  # the round at 1.0 writes both busy hosts
        first = dispatcher.choose(0)
        second = dispatcher.choose(1)
        assert {first, second} == {2, 3}

    def test_custom_threshold(self):
        env = Environment()
        nodes, mon, dispatcher = build(env)
        dispatcher.migration_threshold = 10.0
        nodes[0].active_questions = 5
        assert dispatcher.choose(0) == 0  # huge threshold: never migrate

    def test_ties_break_deterministically(self):
        env = Environment()
        nodes, mon, dispatcher = build(env)
        nodes[2].active_questions = 4
        a = dispatcher.choose(2)
        env2 = Environment()
        nodes2, mon2, dispatcher2 = build(env2)
        nodes2[2].active_questions = 4
        b = dispatcher2.choose(2)
        assert a == b
