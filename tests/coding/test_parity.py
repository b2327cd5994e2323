"""Tests for the TMR voter (Section 4.6)."""

import pytest

from repro.coding.parity import tmr_vote


class TestTmrVote:
    def test_masks_any_single_glitch(self):
        for value in (True, False):
            for glitched in range(3):
                samples = [value] * 3
                samples[glitched] = not value
                assert tmr_vote(samples) == value

    def test_unanimous(self):
        assert tmr_vote([True, True, True]) is True
        assert tmr_vote([False, False, False]) is False

    def test_double_glitch_flips(self):
        # TMR's documented limit: two simultaneous upsets win the vote.
        assert tmr_vote([False, False, True]) is False

    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            tmr_vote([True, False])
