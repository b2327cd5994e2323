"""Figures 8 and 9: transmission vs retransmission buffer utilization.

The paper plots, against injection rate 0.1 .. 1.0, the time-averaged
utilization of (8) the normal transmission buffers (input VC FIFOs) and (9)
the HBH retransmission buffers, for the adaptive (AD, west-first) and
deterministic (DT, XY) routing algorithms.  The claims these figures carry
(Section 3.2):

* transmission-buffer utilization climbs steeply toward saturation;
* retransmission buffers are "mostly underutilized", and their utilization
  does **not** track the transmission buffers' — under heavy blocking there
  are fewer flit transmissions, so the replay windows sit idle.  This
  observation is what justifies reusing them for deadlock recovery.

These are fixed-duration open-loop runs (the metric is a time average, not
a per-message statistic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.config import SimulationConfig
from repro.experiments.common import (
    INJECTION_RATES,
    Claim,
    FigureTable,
    paper_noc,
    workload,
)
from repro.noc.simulator import Simulator
from repro.types import RoutingAlgorithm

ALGORITHMS = (("AD", RoutingAlgorithm.WEST_FIRST), ("DT", RoutingAlgorithm.XY))


@dataclass
class UtilizationPoint:
    injection_rate: float
    algorithm: str
    tx_utilization: float
    retx_utilization: float
    delivered: int


def run_figure8_9(
    injection_rates: Sequence[float] = INJECTION_RATES,
    cycles: int = 600,
    measure_from: int = 150,
    seed: int = 13,
) -> Dict[str, List[UtilizationPoint]]:
    results: Dict[str, List[UtilizationPoint]] = {}
    for label, algorithm in ALGORITHMS:
        series: List[UtilizationPoint] = []
        for rate in injection_rates:
            config = SimulationConfig(
                noc=paper_noc(routing=algorithm),
                workload=workload(rate, num_messages=10**9, warmup=0, seed=seed),
                collect_utilization=True,
                backend="batched",  # fault-free: the kernel's domain
            )
            sim = Simulator(config)
            result = sim.run_cycles(cycles, measure_from=measure_from)
            series.append(
                UtilizationPoint(
                    injection_rate=rate,
                    algorithm=label,
                    tx_utilization=result.tx_buffer_utilization,
                    retx_utilization=result.retx_buffer_utilization,
                    delivered=result.packets_delivered,
                )
            )
        results[label] = series
    return results


def tables(results: Dict[str, List[UtilizationPoint]]) -> List[FigureTable]:
    """``[Figure 8, Figure 9]`` — one sweep, two buffer classes."""
    rates = [p.injection_rate for p in results["AD"]]
    return [
        FigureTable(
            "Figure 8 — transmission buffer utilization",
            rates,
            {k: [p.tx_utilization for p in v] for k, v in results.items()},
        ),
        FigureTable(
            "Figure 9 — retransmission buffer utilization",
            rates,
            {k: [p.retx_utilization for p in v] for k, v in results.items()},
        ),
    ]


def claims(results: Dict[str, List[UtilizationPoint]]) -> List[Claim]:
    """TX climbs into saturation (Figure 8); RETX stays mostly idle and
    does not track it (Figure 9)."""
    rows = []
    for label, series in results.items():
        tx = [p.tx_utilization for p in series]
        retx = [p.retx_utilization for p in series]
        rows += [
            Claim(f"fig8.{label}.tx_climbs_steeply", tx[-1] / tx[0], ">", 5),
            Claim(f"fig8.{label}.tx_saturated", tx[-1], ">", 0.3),
            Claim(f"fig9.{label}.retx_underutilized", max(retx), "<", 0.4),
            Claim(f"fig9.{label}.retx_stops_climbing", retx[-1] / max(retx), "<=", 1.0),
            # Past saturation blocking suppresses transmissions: RETX ends
            # below its own earlier peak, or at least below TX.
            Claim(
                f"fig9.{label}.ends_below_peak_or_tx",
                retx[-1] - max(retx[:-1] + [tx[-1]]),
                "<",
                0,
            ),
        ]
    return rows
