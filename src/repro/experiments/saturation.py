"""Latency-vs-load characterization (the context behind Figures 8/9).

Not itself a paper figure, but the standard NoC curve the paper's
injection-rate axis lives on: average latency versus offered load for the
deterministic (DT/XY) and adaptive (AD/west-first) routing algorithms, with
claims that the sweep spans each one's knee (``tools/record.py`` records
them in ``CLAIMS_paper.json``).  ``run_hbh_overhead`` uses it to
quantify how the fault-tolerance machinery shifts (or does not shift)
latency when no error occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.experiments.common import Claim
from repro.noc.simulator import run_simulation
from repro.types import LinkProtection, RoutingAlgorithm

DEFAULT_RATES = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)


@dataclass
class LoadPoint:
    injection_rate: float
    avg_latency: float
    throughput: float
    delivered: int
    hit_cycle_limit: bool


@dataclass
class SaturationCurve:
    algorithm: str
    points: List[LoadPoint]

    def peak_throughput(self) -> float:
        return max(p.throughput for p in self.points)


def run_saturation(
    rates: Sequence[float] = DEFAULT_RATES,
    algorithms: Sequence[RoutingAlgorithm] = (
        RoutingAlgorithm.XY,
        RoutingAlgorithm.WEST_FIRST,
    ),
    num_messages: int = 600,
    noc_overrides: Optional[dict] = None,
    fault_config: Optional[FaultConfig] = None,
    seed: int = 23,
) -> Dict[str, SaturationCurve]:
    """Sweep offered load for each routing algorithm."""
    curves: Dict[str, SaturationCurve] = {}
    for algorithm in algorithms:
        overrides = dict(noc_overrides or {})
        overrides["routing"] = algorithm
        points: List[LoadPoint] = []
        for rate in rates:
            config = SimulationConfig(
                noc=NoCConfig(**overrides),
                faults=fault_config or FaultConfig.fault_free(seed=seed),
                workload=WorkloadConfig(
                    injection_rate=rate,
                    num_messages=num_messages,
                    warmup_messages=num_messages // 5,
                    max_cycles=40_000,
                    seed=seed,
                ),
                # Fault-free or link-fault curves run on the kernel; any
                # other fault_config falls back to the object loop.
                backend="batched",
            )
            result = run_simulation(config)
            points.append(
                LoadPoint(
                    injection_rate=rate,
                    avg_latency=result.avg_latency,
                    throughput=result.throughput_flits_per_node_cycle,
                    delivered=result.packets_delivered,
                    hit_cycle_limit=result.hit_cycle_limit,
                )
            )
        curves[algorithm.value] = SaturationCurve(algorithm.value, points)
    return curves


def run_hbh_overhead() -> Dict[str, SaturationCurve]:
    """XY at three loads with zero errors, without and with the full HBH
    machinery (sequence tracking, replay windows, retransmission buffers)."""
    return {
        protection.value: run_saturation(
            rates=(0.1, 0.25, 0.4),
            algorithms=(RoutingAlgorithm.XY,),
            noc_overrides={"link_protection": protection},
        )["xy"]
        for protection in (LinkProtection.NONE, LinkProtection.HBH)
    }


def claims(curves: Dict[str, SaturationCurve]) -> List[Claim]:
    """The sweep spans the knee: latency grows with load, accepted traffic
    falls short of offered at the top and tracks it near the bottom."""
    rows = []
    for name, curve in curves.items():
        first, low, top = curve.points[0], curve.points[1], curve.points[-1]
        growth = top.avg_latency / first.avg_latency
        accepted_top = curve.peak_throughput() / top.injection_rate
        accepted_low = low.throughput / low.injection_rate
        rows += [
            Claim(f"sat.{name}.latency_grows_with_load", growth, ">", 1.5),
            Claim(f"sat.{name}.past_knee_at_top", accepted_top, "<", 0.85),
            Claim(f"sat.{name}.accepts_offered_below_knee", accepted_low, ">", 0.7),
        ]
    return rows


def overhead_claims(curves: Dict[str, SaturationCurve]) -> List[Claim]:
    """"All the mechanisms ... kept the critical path of the NoC router
    intact": with zero errors HBH latency matches the unprotected one's."""
    return [
        Claim(
            f"sat.hbh_overhead_cycles_at_{bare.injection_rate}",
            abs(hbh.avg_latency - bare.avg_latency),
            "<",
            0.75,
        )
        for bare, hbh in zip(curves["none"].points, curves["hbh"].points)
    ]
