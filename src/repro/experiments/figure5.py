"""Figure 5: latency of HBH vs E2E vs FEC as the link error rate grows.

Paper setup: 8x8 mesh, injection 0.25 flits/node/cycle, normal-random
traffic, error rates 1e-5 .. 1e-1.  Paper claim: "E2E schemes suffer from
prohibitive latency penalties as error rates increase" while the HBH scheme
stays essentially flat; FEC cannot retransmit, so its latency also stays
low but it delivers corrupted/lost packets instead (which we report in the
extra columns — the figure's latency axis alone understates FEC's failure).
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
from repro.types import LinkProtection

SCHEMES = (LinkProtection.HBH, LinkProtection.E2E, LinkProtection.FEC)


@dataclass
class SchemePoint:
    error_rate: float
    scheme: str
    avg_latency: float
    packets_lost: int
    packets_delivered_corrupt: int
    retransmissions: int


def run_figure5(
    error_rates: Sequence[float] = ERROR_RATES,
    num_messages: int = 1500,
    warmup: int = 300,
    injection_rate: float = PAPER_INJECTION_RATE,
    multi_bit_fraction: float = 0.2,
    seed: int = 7,
) -> Dict[str, List[SchemePoint]]:
    """Run the Figure 5 sweep; returns one latency series per scheme."""
    results: Dict[str, List[SchemePoint]] = {s.value: [] for s in SCHEMES}
    for scheme in SCHEMES:
        for rate in error_rates:
            config = SimulationConfig(
                noc=paper_noc(link_protection=scheme),
                faults=FaultConfig.link_only(
                    rate, multi_bit_fraction=multi_bit_fraction, seed=seed
                ),
                workload=workload(injection_rate, num_messages, warmup, seed=seed),
            )
            result = run_simulation(config)
            retx = result.counter("retransmission_rounds") + result.counter(
                "e2e_retransmissions"
            )
            results[scheme.value].append(
                SchemePoint(
                    error_rate=rate,
                    scheme=scheme.value,
                    avg_latency=result.avg_latency,
                    packets_lost=result.packets_lost,
                    packets_delivered_corrupt=result.counter(
                        "packets_delivered_corrupt"
                    ),
                    retransmissions=retx,
                )
            )
    return results


def tables(results: Dict[str, List[SchemePoint]]) -> List[FigureTable]:
    """The figure's latency series, plus the integrity side-table that the
    latency axis alone hides (FEC and E2E lose or corrupt packets)."""
    rates = [p.error_rate for p in results["hbh"]]
    return [
        FigureTable(
            "Figure 5 — latency (cycles) vs error rate",
            rates,
            {k.upper(): [p.avg_latency for p in v] for k, v in results.items()},
            log_x=True,
        ),
        FigureTable(
            "Figure 5 — integrity (packets lost + delivered corrupt)",
            rates,
            {
                k.upper(): [p.packets_lost + p.packets_delivered_corrupt for p in v]
                for k, v in results.items()
            },
            log_x=True,
        ),
    ]


def claims(results: Dict[str, List[SchemePoint]]) -> List[Claim]:
    """The figure's claims: HBH flat, E2E prohibitive, HBH the loss-free one."""
    hbh = [p.avg_latency for p in results["hbh"]]
    e2e = [p.avg_latency for p in results["e2e"]]
    top = results["hbh"][-1]
    return [
        Claim("fig5.hbh_flat", max(hbh) / min(hbh), "<", 1.5),
        Claim("fig5.e2e_prohibitive_at_1e-1", e2e[-1] / hbh[-1], ">", 3.0),
        Claim("fig5.e2e_grows_with_error_rate", e2e[-1] / e2e[0], ">", 2.0),
        Claim(
            "fig5.hbh_lossless_at_1e-1",
            top.packets_lost + top.packets_delivered_corrupt,
            "==",
            0,
        ),
    ]
