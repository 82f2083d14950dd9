"""Tests for the DNS front-end."""

import pytest

from repro.core import DNSFrontend


class TestDNSFrontend:
    def test_perfect_round_robin(self):
        fe = DNSFrontend(3)
        assert [fe.assign() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_assignments_recorded(self):
        fe = DNSFrontend(2)
        fe.assign()
        fe.assign()
        assert fe.assignments == [0, 1]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DNSFrontend(0)
