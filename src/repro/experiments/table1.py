"""Table 1: power and area overhead of the Allocation Comparator unit.

Paper values (90 nm synthesis, 5 PCs, 4 VCs/PC):

===========================  ===========  ===============
component                    power        area
===========================  ===========  ===============
Generic NoC router           119.55 mW    0.374862 mm^2
Allocation Comparator (AC)   2.02 mW      0.004474 mm^2
overhead                     +1.69 %      +1.19 %
===========================  ===========  ===============

Our structural model (see :mod:`repro.power.area`) is calibrated at exactly
this configuration, so the Table 1 row reproduces by construction; the value
of the model is that the AC overhead is *computed from its gate inventory*
and therefore extrapolates — ``run_table1`` also reports the overhead at
other (P, V) points, answering the scaling question the paper's compactness
argument raises (the comparison network grows ~quadratically in P*V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import Claim
from repro.power.area import AreaModel


@dataclass
class Table1Row:
    num_ports: int
    num_vcs: int
    router_power_mw: float
    router_area_mm2: float
    ac_power_mw: float
    ac_area_mm2: float
    ac_power_overhead_pct: float
    ac_area_overhead_pct: float


def run_table1(
    configurations: Sequence[Tuple[int, int]] = ((5, 2), (5, 3), (5, 4), (5, 8)),
) -> List[Table1Row]:
    """Compute Table 1 at the paper's point plus scaling points."""
    model = AreaModel()
    rows = []
    for ports, vcs in configurations:
        data = model.table1(num_ports=ports, num_vcs=vcs)
        rows.append(
            Table1Row(
                num_ports=ports,
                num_vcs=vcs,
                router_power_mw=data["router_power_mw"],
                router_area_mm2=data["router_area_mm2"],
                ac_power_mw=data["ac_power_mw"],
                ac_area_mm2=data["ac_area_mm2"],
                ac_power_overhead_pct=data["ac_power_overhead_pct"],
                ac_area_overhead_pct=data["ac_area_overhead_pct"],
            )
        )
    return rows


#: Table 1 as printed: (field, paper value, absolute tolerance).
PAPER_ROW = (
    ("router_power_mw", 119.55, 119.55e-6),
    ("router_area_mm2", 0.374862, 0.374862e-6),
    ("ac_power_mw", 2.02, 2.02e-6),
    ("ac_area_mm2", 0.004474, 0.004474e-6),
    ("ac_power_overhead_pct", 1.69, 0.02),
    ("ac_area_overhead_pct", 1.19, 0.02),
)


def claims(rows: List[Table1Row]) -> List[Claim]:
    """The calibrated 5-port 4-VC row equals the paper's, and the AC stays
    compact (< 2 % of router area) at every point up to 4 VCs."""
    paper = next(r for r in rows if (r.num_ports, r.num_vcs) == (5, 4))
    found = [
        # 12 decimals: below every tolerance, above float noise.
        Claim(
            f"table1.{field}.abs_error",
            round(abs(getattr(paper, field) - value), 12),
            "<=",
            tol,
        )
        for field, value, tol in PAPER_ROW
    ]
    return found + [
        Claim(
            f"table1.P{r.num_ports}V{r.num_vcs}.ac_area_overhead_pct",
            r.ac_area_overhead_pct,
            "<",
            2.0,
        )
        for r in rows
        if r.num_vcs <= 4
    ]


def main() -> None:
    print("Table 1 — Power and Area Overhead of the AC Unit")
    header = (
        f"{'P':>3} {'V':>3} {'router mW':>11} {'router mm2':>11} "
        f"{'AC mW':>8} {'AC mm2':>9} {'pwr +%':>8} {'area +%':>8}"
    )
    print(header)
    for row in run_table1():
        marker = "  <- paper config" if (row.num_ports, row.num_vcs) == (5, 4) else ""
        print(
            f"{row.num_ports:>3} {row.num_vcs:>3} {row.router_power_mw:>11.2f} "
            f"{row.router_area_mm2:>11.6f} {row.ac_power_mw:>8.2f} "
            f"{row.ac_area_mm2:>9.6f} {row.ac_power_overhead_pct:>8.2f} "
            f"{row.ac_area_overhead_pct:>8.2f}{marker}"
        )
    print(
        "\npaper: router 119.55 mW / 0.374862 mm2; AC 2.02 mW (+1.69%) / "
        "0.004474 mm2 (+1.19%)"
    )


if __name__ == "__main__":
    main()
