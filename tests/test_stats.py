"""Tests for the statistics collectors."""

import math

import pytest

from repro.stats.collectors import LatencyStats, StatsCollector, UtilizationTracker


class TestLatencyStats:
    def test_streaming_moments(self):
        stats = LatencyStats()
        for v in (10.0, 20.0, 30.0):
            stats.record(v)
        assert stats.count == 3
        assert stats.mean == 20.0
        assert stats.minimum == 10.0
        assert stats.maximum == 30.0

    def test_empty_mean_is_zero(self):
        assert LatencyStats().mean == 0.0

    def test_percentiles_require_samples(self):
        stats = LatencyStats()
        stats.record(1.0)
        with pytest.raises(ValueError):
            stats.percentile(0.5)

    def test_percentiles(self):
        stats = LatencyStats(keep_samples=True)
        for v in range(1, 101):
            stats.record(float(v))
        assert stats.percentile(0.0) == 1.0
        assert stats.percentile(1.0) == 100.0
        assert 49.0 <= stats.percentile(0.5) <= 52.0

    def test_empty_percentile(self):
        assert LatencyStats(keep_samples=True).percentile(0.5) == 0.0


class TestUtilizationTracker:
    def test_ratio(self):
        tracker = UtilizationTracker()
        tracker.record(occupied=2, capacity=10)
        tracker.record(occupied=4, capacity=10)
        assert tracker.utilization == pytest.approx(0.3)

    def test_empty_is_zero(self):
        assert UtilizationTracker().utilization == 0.0


class TestStatsCollector:
    def test_measurement_window_gates_latency(self):
        stats = StatsCollector()
        stats.record_ejection(10.0, 3)  # warm-up: counted, not measured
        assert stats.packets_ejected == 1
        assert stats.measured_packets == 0
        stats.start_measurement()
        stats.record_ejection(20.0, 4)
        assert stats.measured_packets == 1
        assert stats.latency.mean == 20.0

    def test_measurement_window_gates_energy(self):
        stats = StatsCollector()
        stats.energy_event("link")
        assert stats.energy_events == {}
        stats.start_measurement()
        stats.energy_event("link", 3)
        assert stats.energy_events["link"] == 3

    def test_utilization_gated(self):
        stats = StatsCollector()
        stats.record_utilization(1, 10, 1, 10)
        assert stats.tx_utilization.utilization == 0.0
        stats.start_measurement()
        stats.record_utilization(5, 10, 1, 10)
        assert stats.tx_utilization.utilization == 0.5

    def test_unknown_counter_is_zero(self):
        assert StatsCollector().counter("nope") == 0
