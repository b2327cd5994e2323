"""Shared experiment plumbing: the paper's parameter axes, the table shape
and the claim vocabulary of the tracked artefacts."""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Union

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


def rounded(value: Any) -> Any:
    """``value`` with every float in it at 6 significant digits — what a
    tracked artefact stores, so a last-bit difference between platforms'
    libm is not a diff."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    return value


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


class Claim(NamedTuple):
    """One named predicate of a tracked artefact: ``value op bound``.  A
    predicate over two series is one claim whose ``value`` is their ratio or
    difference.  ``holds`` judges the value the artefact stores (rounded)."""

    name: str
    value: Union[float, int, bool]
    op: str
    bound: Union[float, int, bool]

    @property
    def holds(self) -> bool:
        return bool(_OPS[self.op](rounded(self.value), self.bound))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "value": rounded(self.value),
            "op": self.op,
            "bound": self.bound,
            "holds": self.holds,
        }


def stored_claims(payload: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Every claim row of an artefact: its own and each figure's."""
    yield from payload.get("claims", [])
    for figure in payload.get("figures", {}).values():
        yield from figure["claims"]


def claim_failures(payload: Dict[str, Any]) -> List[str]:
    """What an artefact's claims forbid: a false claim that is not a listed
    ``known_deviations`` entry, and a listed one that is not a false claim."""
    deviations = payload.get("known_deviations", {})
    false = {row["name"]: row for row in stored_claims(payload) if not row["holds"]}
    failures = [
        f"claim {name} does not hold: {row['value']} {row['op']} {row['bound']}"
        for name, row in false.items()
        if name not in deviations
    ]
    failures += [
        f"known deviation {name} is not a false claim: delete its entry"
        for name in deviations
        if name not in false
    ]
    return failures
