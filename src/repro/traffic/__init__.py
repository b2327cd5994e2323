"""Workload generation: destination distributions and injection processes.

The paper's three destination distributions (Section 2.2) are normal random
(NR), bit-complement (BC) and tornado (TN); transpose and hotspot are
provided as standard extras for ablation studies.
"""

from repro.traffic.injection import InjectionProcess, PeriodicInjection
from repro.traffic.patterns import (
    BitComplementTraffic,
    HotspotTraffic,
    TornadoTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    make_traffic_pattern,
)

__all__ = [
    "BitComplementTraffic",
    "HotspotTraffic",
    "InjectionProcess",
    "PeriodicInjection",
    "TornadoTraffic",
    "TrafficPattern",
    "TransposeTraffic",
    "UniformTraffic",
    "make_traffic_pattern",
]
