"""Tests for the batch-means confidence intervals."""

import random

import pytest

from repro.stats.confidence import (
    ConfidenceInterval,
    batch_means_interval,
    required_samples_estimate,
)


class TestBatchMeans:
    def test_constant_series_zero_width(self):
        ci = batch_means_interval([5.0] * 100)
        assert ci.mean == 5.0
        assert ci.half_width == 0.0
        assert ci.low == ci.high == 5.0

    def test_interval_covers_true_mean(self):
        rng = random.Random(3)
        hits = 0
        for trial in range(40):
            samples = [rng.gauss(10.0, 2.0) for _ in range(400)]
            ci = batch_means_interval(samples)
            if ci.low <= 10.0 <= ci.high:
                hits += 1
        # 95% nominal coverage; allow generous slack for 40 trials.
        assert hits >= 33

    def test_more_samples_tighter_interval(self):
        rng = random.Random(5)
        small = batch_means_interval([rng.gauss(0, 1) for _ in range(200)])
        rng = random.Random(5)
        large = batch_means_interval([rng.gauss(0, 1) for _ in range(5000)])
        assert large.half_width < small.half_width

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_means_interval([1.0] * 100, batches=1)
        with pytest.raises(ValueError):
            batch_means_interval([1.0, 2.0], batches=10)

    def test_str(self):
        text = str(batch_means_interval([1.0, 2.0] * 20))
        assert "±" in text and "batches" in text


class TestRequiredSamples:
    def test_already_precise(self):
        samples = [10.0 + 0.001 * (i % 2) for i in range(200)]
        assert required_samples_estimate(samples, 0.5) == 200

    def test_extrapolates_quadratically(self):
        rng = random.Random(7)
        samples = [rng.gauss(10, 3) for _ in range(200)]
        ci = batch_means_interval(samples)
        target = ci.relative_half_width / 2
        needed = required_samples_estimate(samples, target)
        assert needed == pytest.approx(800, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_samples_estimate([1.0] * 100, 0.0)


class TestIntegrationWithSimulator:
    def test_latency_interval_from_a_run(self):
        from repro.config import NoCConfig, SimulationConfig, WorkloadConfig
        from repro.noc.simulator import Simulator

        config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4)),
            workload=WorkloadConfig(
                injection_rate=0.2, num_messages=400, warmup_messages=80
            ),
        )
        sim = Simulator(config)
        sim.network.stats.latency.keep_samples = True
        result = sim.run()
        ci = batch_means_interval(sim.network.stats.latency.samples)
        assert ci.low <= result.avg_latency <= ci.high
        # At this scale the latency estimate is already reasonably tight.
        assert ci.relative_half_width < 0.25
