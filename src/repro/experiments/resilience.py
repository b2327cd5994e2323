"""``RESIL_noc.json``: the pinned resilience scenario matrix and its claims.

The fault-tolerance counterpart of the routing certificate: the
graceful-degradation campaign per routing algorithm (fault-aware
``ft_table`` vs non-reroutable ``west_first``), whole-pillar TSV kills on
the 3D stack and the intermittent/wear-out burst sweep, each reduced to
rows plus the claims those rows must satisfy.  Every run is seeded, so the
record is deterministic: ``tools/record.py --check`` regenerates it and
fails on any drift from the committed file, not only on a violated claim
(docs/FAULTS.md).
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Any, Dict, List

from repro.experiments.common import Claim
from repro.experiments.degradation import run_burst_degradation, run_degradation
from repro.types import RoutingAlgorithm

#: The pinned scenario matrix: each block is the keyword arguments of its
#: runner.  Small enough for CI, large enough that every layer (reroute,
#: drain, burst, escalation) genuinely engages.
SCENARIO: Dict[str, Any] = {
    # Run once per routing: fault-aware against non-reroutable.
    "routings": ["ft_table", "west_first"],
    "degradation": {
        "shape": [6, 6],
        "max_kills": 4,
        "injection_rate": 0.08,
        "inject_cycles": 800,
        "drain_cycles": 15_000,
        "seed": 2006,
    },
    # Whole-pillar TSV failures on the 3D stack: each kill level severs
    # every vertical link of one more (x, y) column, the characteristic
    # 3D-integration fault unit, under 2-cycle TSV link latency.
    "pillar": {
        "shape": [3, 3, 3],
        "link_latency": [1, 1, 2],
        "kill_pillars": True,
        "max_kills": 3,
        "injection_rate": 0.08,
        "inject_cycles": 800,
        "drain_cycles": 15_000,
        "seed": 2006,
    },
    "burst": {
        "shape": [4, 4],
        "burst_rates": [0.0, 0.5],
        "wear_thresholds": [None, 10.0],
        "num_sites": 4,
        "mean_on": 40.0,
        "mean_off": 120.0,
        "injection_rate": 0.1,
        "inject_cycles": 800,
        "drain_cycles": 15_000,
        "seed": 2006,
    },
}


def _rows(points: List[Any]) -> List[Dict[str, Any]]:
    """Dataclass points as JSON rows, floats at 4 decimals."""
    return [
        {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in dataclasses.asdict(point).items()
        }
        for point in points
    ]


def measure() -> Dict[str, Any]:
    """Run ``SCENARIO``: its ``degradation``, ``pillar`` and ``burst`` rows."""
    degradation = {}
    with warnings.catch_warnings():
        # west_first deliberately runs without rerouting; the NOC013
        # warning is the point of the comparison, not noise for CI.
        warnings.filterwarnings("ignore", message=".*NOC013.*")
        for routing in SCENARIO["routings"]:
            degradation[routing] = _rows(
                run_degradation(
                    **SCENARIO["degradation"], routing=RoutingAlgorithm(routing)
                )
            )
    return {
        "degradation": degradation,
        "pillar": _rows(run_degradation(**SCENARIO["pillar"])),
        "burst": _rows(run_burst_degradation(**SCENARIO["burst"])),
    }


def claims(results: Dict[str, Any]) -> List[Claim]:
    """The resilience floors, one row each."""
    ft = results["degradation"]["ft_table"]
    west_first = results["degradation"]["west_first"]
    pillar = results["pillar"]
    cells = {(r["burst_rate"], r["wear_threshold"]): r for r in results["burst"]}
    calm, storm = cells[(0.0, None)], cells[(0.5, 10.0)]
    rows = [
        Claim("ft_table.healthy_delivery", ft[0]["delivery_rate"], "==", 1.0),
        Claim("ft_table.delivery_at_4_kills", ft[-1]["delivery_rate"], ">=", 0.93),
        Claim("ft_table.inflation_at_4_kills", ft[-1]["latency_inflation"], "<=", 1.5),
        # The reason the fault-aware machinery exists.
        Claim(
            "reroute_gain_over_west_first",
            ft[-1]["delivery_rate"] - west_first[-1]["delivery_rate"],
            ">=",
            0.01,
        ),
        Claim("pillar.healthy_delivery", pillar[0]["delivery_rate"], "==", 1.0),
        Claim("pillar.delivery_at_3_kills", pillar[-1]["delivery_rate"], ">=", 0.90),
        Claim("burst.calm_delivery", calm["delivery_rate"], "==", 1.0),
        Claim("burst.storm_delivery", storm["delivery_rate"], ">=", 0.90),
        Claim("burst.storm_strikes", storm["intermittent_strikes"], ">", 0),
        # The soft-to-hard path engages: wear-out escalates a site.
        Claim("burst.storm_escalations", storm["escalations"], ">=", 1),
        Claim("burst.storm_hit_cycle_limit", storm["hit_cycle_limit"], "==", False),
    ]
    # Every level finishes its drain, and absorbs its mid-run kill in time.
    for group, levels in (("ft_table", ft), ("pillar", pillar)):
        for row in levels:
            name = f"{group}.level_{row['kills']}.hit_cycle_limit"
            rows.append(Claim(name, row["hit_cycle_limit"], "==", False))
    for row in ft:
        name = f"ft_table.level_{row['kills']}.reconvergence_cycles"
        rows.append(Claim(name, row["reconvergence_cycles"], "<=", 2000))
    return rows


def build_resilience_record() -> Dict[str, Any]:
    results = measure()
    return {
        "schema": "repro/v1",
        "artifact": "RESIL_noc",
        "scenario": SCENARIO,
        **results,
        "claims": [claim.to_dict() for claim in claims(results)],
    }
