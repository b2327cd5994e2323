"""Figures 6 and 7: the HBH scheme under NR / BC / TN traffic.

Figure 6 plots average latency and Figure 7 energy per message against the
link error rate (1e-5 .. 1e-1) at injection 0.25 flits/node/cycle.  Paper
claim: both metrics remain "almost constant even up to 10% error rate",
because a retransmission costs only 3 cycles and moves flits over a single
hop.  One sweep produces both figures, so they share a runner.

These runs use ``multi_bit_fraction=1.0``: every injected link error defeats
the SEC stage and forces a retransmission — the *worst case* for the HBH
scheme, making the flatness claim as strong as possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.config import FaultConfig, SimulationConfig
from repro.experiments.common import (
    ERROR_RATES,
    PAPER_INJECTION_RATE,
    Claim,
    FigureTable,
    paper_noc,
    workload,
)
from repro.noc.simulator import run_simulation

#: The paper's traffic patterns, by their figure-legend names.
PATTERNS = (("NR", "uniform"), ("BC", "bit_complement"), ("TN", "tornado"))


@dataclass
class TrafficPoint:
    error_rate: float
    pattern: str
    avg_latency: float
    energy_per_packet_nj: float
    retransmission_rounds: int


def run_figure6_7(
    error_rates: Sequence[float] = ERROR_RATES,
    num_messages: int = 1500,
    warmup: int = 300,
    injection_rate: float = PAPER_INJECTION_RATE,
    seed: int = 11,
) -> Dict[str, List[TrafficPoint]]:
    """Run the shared Figure 6/7 sweep; one series per traffic pattern."""
    results: Dict[str, List[TrafficPoint]] = {}
    for label, pattern in PATTERNS:
        series: List[TrafficPoint] = []
        for rate in error_rates:
            config = SimulationConfig(
                noc=paper_noc(),
                faults=FaultConfig.link_only(rate, multi_bit_fraction=1.0, seed=seed),
                workload=workload(
                    injection_rate, num_messages, warmup, pattern=pattern, seed=seed
                ),
            )
            result = run_simulation(config)
            series.append(
                TrafficPoint(
                    error_rate=rate,
                    pattern=label,
                    avg_latency=result.avg_latency,
                    energy_per_packet_nj=result.energy_per_packet_nj,
                    retransmission_rounds=result.counter("retransmission_rounds"),
                )
            )
        results[label] = series
    return results


def tables(results: Dict[str, List[TrafficPoint]]) -> List[FigureTable]:
    """``[Figure 6, Figure 7]`` — one sweep, two metrics."""
    rates = [p.error_rate for p in results["NR"]]
    return [
        FigureTable(
            "Figure 6 — HBH latency (cycles)",
            rates,
            {k: [p.avg_latency for p in v] for k, v in results.items()},
            log_x=True,
        ),
        FigureTable(
            "Figure 7 — HBH energy/message (nJ)",
            rates,
            {k: [p.energy_per_packet_nj for p in v] for k, v in results.items()},
            log_x=True,
        ),
    ]


def claims(results: Dict[str, List[TrafficPoint]]) -> List[Claim]:
    """Near-constant latency (Figure 6) and energy (Figure 7) per pattern."""
    rows = []
    for label, series in results.items():
        latency = [p.avg_latency for p in series]
        energy = [p.energy_per_packet_nj for p in series]
        rounds = [p.retransmission_rounds for p in series]
        base = min(latency)
        rows += [
            # Flat through 1e-2 even with every error uncorrectable ...
            Claim(f"fig6.{label}.flat_to_1e-2", max(latency[:-1]) / base, "<", 1.35),
            # ... and at 1e-1, where a pattern near saturation (BC) amplifies
            # the per-error penalty, still within a small multiple.
            Claim(f"fig6.{label}.within_2.5x_at_1e-1", latency[-1] / base, "<", 2.5),
            # The flat latency is not because nothing happened.
            Claim(f"fig6.{label}.retx_scales", rounds[-1] / max(1, rounds[0]), ">", 10),
            Claim(f"fig7.{label}.energy_flat", max(energy) / min(energy), "<", 1.25),
            # The paper's sub-nanojoule band.
            Claim(f"fig7.{label}.energy_min_nj", min(energy), ">", 0.01),
            Claim(f"fig7.{label}.energy_max_nj", max(energy), "<", 1.0),
        ]
    return rows
