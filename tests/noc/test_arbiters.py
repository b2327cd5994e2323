"""Tests for the round-robin arbiter."""

from collections import Counter

import pytest

from repro.noc.arbiters import RoundRobinArbiter


class TestRoundRobin:
    def test_no_requests(self):
        assert RoundRobinArbiter(4).grant([]) is None

    def test_single_request_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([2]) == 2

    def test_rotates_after_grant(self):
        arb = RoundRobinArbiter(3)
        all_req = [0, 1, 2]
        winners = [arb.grant(all_req) for _ in range(6)]
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_strong_fairness_under_full_load(self):
        arb = RoundRobinArbiter(5)
        counts = Counter(arb.grant(range(5)) for _ in range(100))
        assert set(counts.values()) == {20}

    def test_skips_idle_requesters(self):
        arb = RoundRobinArbiter(4)
        req = [0, 2]
        winners = [arb.grant(req) for _ in range(4)]
        assert winners == [0, 2, 0, 2]

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(4).grant([4])

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_reset(self):
        arb = RoundRobinArbiter(3)
        arb.grant([0, 1, 2])
        arb.reset()
        assert arb.grant([0, 1, 2]) == 0
