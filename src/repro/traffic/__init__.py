"""Workload generation: destination distributions and injection processes.

The paper's three destination distributions (Section 2.2) are normal random
(NR), bit-complement (BC) and tornado (TN); transpose is provided as the
standard extra.
"""

from repro.traffic.injection import InjectionProcess, PeriodicInjection
from repro.traffic.patterns import (
    BitComplementTraffic,
    TornadoTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    make_traffic_pattern,
)

__all__ = [
    "BitComplementTraffic",
    "InjectionProcess",
    "PeriodicInjection",
    "TornadoTraffic",
    "TrafficPattern",
    "TransposeTraffic",
    "UniformTraffic",
    "make_traffic_pattern",
]
