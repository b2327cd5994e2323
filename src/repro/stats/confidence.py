"""Batch-means confidence intervals for steady-state simulation output.

The paper reports point estimates from very long runs (300k messages); at
our scaled message counts it is worth quantifying the uncertainty instead.
The standard technique for correlated simulation output is the method of
batch means: split the (post-warm-up) observation stream into ``k`` equal
batches, treat the batch means as approximately i.i.d. normal, and build a
Student-t interval over them.

No run reaches this module on its own: the samples it needs exist only
after ``stats.latency.keep_samples = True`` is set on a built network.  The
t-quantile table covers the common batch counts so there is no SciPy
dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Two-sided 95% Student-t quantiles by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 19: 2.093, 24: 2.064, 29: 2.045, 39: 2.023,
    49: 2.010, 99: 1.984,
}


def _t95(dof: int) -> float:
    if dof <= 0:
        raise ValueError("need at least two batches")
    best = min((k for k in _T95 if k >= dof), default=None)
    if best is None:
        return 1.96  # normal limit
    return _T95[best]


@dataclass(frozen=True)
class ConfidenceInterval:
    mean: float
    half_width: float
    batches: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        return self.half_width / abs(self.mean) if self.mean else math.inf

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f} (95%, {self.batches} batches)"


def batch_means_interval(
    samples: Sequence[float], batches: int = 10
) -> ConfidenceInterval:
    """95% confidence interval on the mean via the method of batch means.

    Parameters
    ----------
    samples:
        Post-warm-up observations in arrival order (ordering matters: the
        batching is what absorbs the serial correlation).
    batches:
        Number of batches ``k``; 10-30 is customary.  Requires at least
        two samples per batch.
    """
    if batches < 2:
        raise ValueError("need at least two batches")
    if len(samples) < 2 * batches:
        raise ValueError(
            f"need at least {2 * batches} samples for {batches} batches, "
            f"got {len(samples)}"
        )
    batch_size = len(samples) // batches
    means = []
    for b in range(batches):
        chunk = samples[b * batch_size : (b + 1) * batch_size]
        means.append(sum(chunk) / len(chunk))
    grand = sum(means) / batches
    variance = sum((m - grand) ** 2 for m in means) / (batches - 1)
    half = _t95(batches - 1) * math.sqrt(variance / batches)
    return ConfidenceInterval(mean=grand, half_width=half, batches=batches)


def required_samples_estimate(
    samples: Sequence[float], target_relative_half_width: float, batches: int = 10
) -> int:
    """Rough sample count needed to reach a target relative precision,
    extrapolating from the current interval (half-width ~ 1/sqrt(n))."""
    if target_relative_half_width <= 0:
        raise ValueError("target precision must be positive")
    ci = batch_means_interval(samples, batches)
    if ci.relative_half_width <= target_relative_half_width:
        return len(samples)
    factor = (ci.relative_half_width / target_relative_half_width) ** 2
    return math.ceil(len(samples) * factor)
