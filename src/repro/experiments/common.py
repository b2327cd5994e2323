"""Shared experiment plumbing: the paper's parameter axes and the table shape."""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

from repro.config import (
    FaultConfig,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
)

#: The error-rate axis of Figures 5-7 (per-flit per-hop upset probability).
ERROR_RATES = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

#: The error-rate axis of Figure 13 (tops out at 1e-2).
FIG13_ERROR_RATES = (1e-5, 1e-4, 1e-3, 1e-2)

#: The injection-rate axis of Figures 8-9 (flits/node/cycle).
INJECTION_RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: The paper's fixed operating point for the error sweeps.
PAPER_INJECTION_RATE = 0.25


def paper_noc(**overrides) -> NoCConfig:
    """The Section 2.2 platform: 8x8 mesh, 3-stage routers, 3 VCs, 4-flit
    packets, single-cycle links."""
    return NoCConfig(**overrides)


def workload(
    injection_rate: float,
    num_messages: int,
    warmup: int,
    pattern: str = "uniform",
    seed: int = 42,
    max_cycles: int = 300_000,
) -> WorkloadConfig:
    return WorkloadConfig(
        pattern=pattern,
        injection_rate=injection_rate,
        num_messages=num_messages,
        warmup_messages=warmup,
        max_cycles=max_cycles,
        seed=seed,
    )


class FigureTable(NamedTuple):
    """One table of a paper figure: ``series`` maps a legend label to one
    value per entry of ``xs``.  Every ``figureN.tables(results)`` returns a
    list of these; :func:`repro.report.charts.render_figure` prints one."""

    title: str
    xs: Sequence[float]
    series: Dict[str, Sequence[float]]
    log_x: bool = False
