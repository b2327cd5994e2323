"""Tests for the round-robin arbiter."""

from collections import Counter

import pytest

from repro.noc.arbiters import RoundRobinArbiter


class TestRoundRobin:
    def test_no_requests(self):
        assert RoundRobinArbiter(4).arbitrate([False] * 4) is None

    def test_single_request_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.arbitrate([False, False, True, False]) == 2

    def test_rotates_after_grant(self):
        arb = RoundRobinArbiter(3)
        all_req = [True, True, True]
        winners = [arb.arbitrate(all_req) for _ in range(6)]
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_strong_fairness_under_full_load(self):
        arb = RoundRobinArbiter(5)
        counts = Counter(arb.arbitrate([True] * 5) for _ in range(100))
        assert set(counts.values()) == {20}

    def test_skips_idle_requesters(self):
        arb = RoundRobinArbiter(4)
        req = [True, False, True, False]
        winners = [arb.arbitrate(req) for _ in range(4)]
        assert winners == [0, 2, 0, 2]

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(4).arbitrate([True] * 3)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_reset(self):
        arb = RoundRobinArbiter(3)
        arb.arbitrate([True] * 3)
        arb.reset()
        assert arb.arbitrate([True] * 3) == 0
