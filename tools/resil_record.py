#!/usr/bin/env python
"""Record the simulator's resilience trajectory in ``RESIL_noc.json``.

The fault-tolerance counterpart of the performance ledger: runs a pinned
scenario matrix — the graceful-degradation campaign per routing algorithm
(fault-aware ``ft_table`` vs non-reroutable ``west_first``) plus the
intermittent/wear-out burst sweep — and appends one record to the JSON
trajectory file, so the repo carries its own resilience history across
PRs and a change that silently degrades fault tolerance fails CI exactly
like a performance regression would (docs/FAULTS.md).

Usage::

    PYTHONPATH=src python tools/resil_record.py [--label "PR 8"]
    PYTHONPATH=src python tools/resil_record.py --check --no-append

``--check`` additionally enforces the resilience floors on the freshly
measured numbers:

* **ft_table delivery** — with ``--kills`` dead links, fault-aware
  routing must still deliver at least ``--min-ft-delivery`` of injected
  packets (and 100% on the healthy mesh);
* **ft_table latency inflation** — detours at the deepest kill level may
  not exceed ``--max-ft-inflation`` of healthy latency;
* **reconvergence** — every kill level must finish its drain (no
  ``hit_cycle_limit``) and absorb the mid-run kill within
  ``--max-reconvergence`` cycles;
* **rerouting must matter** — ft_table's deepest-level delivery must
  beat west_first's by at least ``--min-reroute-gain`` (the reason the
  fault-aware machinery exists);
* **pillar kills** — on the 3D stack, delivery with every TSV pillar of
  ``--kills`` columns severed must stay at least ``--min-pillar-delivery``
  (and 100% on the healthy stack), with every drain finishing;
* **burst storm** — under the stormy cell (strike rate
  ``--burst-rate``, wear threshold ``--wear-threshold``) delivery must
  stay at least ``--min-burst-delivery``, the wear-out lifecycle must
  actually escalate at least one site, and the burst-free cell must
  deliver everything.

Exits non-zero when a floor is violated, so CI can gate on it.

File schema (list of records, oldest first)::

    [
      {
        "timestamp": "...",
        "label": "PR 8",
        "git_rev": "abc1234",
        "scenario": {"shape": [6, 6], "kills": 4, ...},
        "degradation": {
          "ft_table":   [{"kills": 0, "delivery_rate": 1.0, ...}, ...],
          "west_first": [...]
        },
        "burst": [{"burst_rate": 0.0, "wear_threshold": null, ...}, ...]
      },
      ...
    ]
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import pathlib
import subprocess
import sys
import warnings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.degradation import (  # noqa: E402
    run_burst_degradation,
    run_degradation,
)
from repro.types import RoutingAlgorithm  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "RESIL_noc.json"

#: The pinned scenario matrix.  Small enough for CI, large enough that
#: every layer (reroute, drain, burst, escalation) genuinely engages.
SCENARIO = {
    "shape": [6, 6],
    "kills": 4,
    "injection_rate": 0.08,
    "inject_cycles": 800,
    "drain_cycles": 15_000,
    "seed": 2006,
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
    # Whole-pillar TSV failures on the 3D stack: each kill level severs
    # every vertical link of one more (x, y) column, the characteristic
    # 3D-integration fault unit, under 2-cycle TSV link latency.
    "pillar": {
        "shape": [3, 3, 3],
        "link_latency": [1, 1, 2],
        "kills": 3,
        "injection_rate": 0.08,
        "inject_cycles": 800,
        "drain_cycles": 15_000,
        "seed": 2006,
    },
}

ROUTINGS = (RoutingAlgorithm.FT_TABLE, RoutingAlgorithm.WEST_FIRST)


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def _round(value: float, digits: int = 4) -> float:
    return round(value, digits)


def measure() -> dict:
    scenario = SCENARIO
    degradation = {}
    for routing in ROUTINGS:
        with warnings.catch_warnings():
            # west_first deliberately runs without rerouting; the NOC013
            # warning is the point of the comparison, not noise for CI.
            warnings.filterwarnings("ignore", message=".*NOC013.*")
            points = run_degradation(
                shape=scenario["shape"],
                max_kills=scenario["kills"],
                injection_rate=scenario["injection_rate"],
                inject_cycles=scenario["inject_cycles"],
                drain_cycles=scenario["drain_cycles"],
                seed=scenario["seed"],
                routing=routing,
            )
        rows = []
        for p in points:
            row = dataclasses.asdict(p)
            for key in ("delivery_rate", "reachable_fraction",
                        "avg_latency", "latency_inflation"):
                row[key] = _round(row[key])
            rows.append(row)
        degradation[routing.value] = rows
        worst = rows[-1]
        print(
            f"{routing.value:>12}: delivery {rows[0]['delivery_rate']:.3f}"
            f" -> {worst['delivery_rate']:.3f} over {scenario['kills']} kills,"
            f" inflation {worst['latency_inflation']:.2f}x,"
            f" reconvergence {worst['reconvergence_cycles']} cycles",
            file=sys.stderr,
        )

    pillar_cfg = scenario["pillar"]
    pillar_points = run_degradation(
        max_kills=pillar_cfg["kills"],
        injection_rate=pillar_cfg["injection_rate"],
        inject_cycles=pillar_cfg["inject_cycles"],
        drain_cycles=pillar_cfg["drain_cycles"],
        seed=pillar_cfg["seed"],
        routing=RoutingAlgorithm.FT_TABLE,
        shape=tuple(pillar_cfg["shape"]),
        link_latency=tuple(pillar_cfg["link_latency"]),
        kill_pillars=True,
    )
    pillar_rows = []
    for p in pillar_points:
        row = dataclasses.asdict(p)
        for key in ("delivery_rate", "reachable_fraction",
                    "avg_latency", "latency_inflation"):
            row[key] = _round(row[key])
        pillar_rows.append(row)
    worst_pillar = pillar_rows[-1]
    print(
        f"{'pillar':>12}: delivery {pillar_rows[0]['delivery_rate']:.3f}"
        f" -> {worst_pillar['delivery_rate']:.3f} over"
        f" {pillar_cfg['kills']} TSV-pillar kills,"
        f" inflation {worst_pillar['latency_inflation']:.2f}x",
        file=sys.stderr,
    )

    burst_cfg = scenario["burst"]
    burst_points = run_burst_degradation(
        shape=burst_cfg["shape"],
        burst_rates=tuple(burst_cfg["burst_rates"]),
        wear_thresholds=tuple(burst_cfg["wear_thresholds"]),
        num_sites=burst_cfg["num_sites"],
        mean_on=burst_cfg["mean_on"],
        mean_off=burst_cfg["mean_off"],
        injection_rate=burst_cfg["injection_rate"],
        inject_cycles=burst_cfg["inject_cycles"],
        drain_cycles=burst_cfg["drain_cycles"],
        seed=burst_cfg["seed"],
    )
    burst_rows = []
    for p in burst_points:
        row = dataclasses.asdict(p)
        for key in ("delivery_rate", "avg_latency", "latency_inflation"):
            row[key] = _round(row[key])
        burst_rows.append(row)
        wear = row["wear_threshold"]
        print(
            f"{'burst':>12}: rate {row['burst_rate']:.1f}"
            f" wear {'off' if wear is None else wear}"
            f" -> delivery {row['delivery_rate']:.3f},"
            f" strikes {row['intermittent_strikes']},"
            f" escalated {row['escalations']}",
            file=sys.stderr,
        )
    return {
        "degradation": degradation,
        "pillar": pillar_rows,
        "burst": burst_rows,
    }


def _burst_cell(rows: list, rate: float, threshold) -> dict:
    for row in rows:
        if row["burst_rate"] == rate and row["wear_threshold"] == threshold:
            return row
    raise KeyError(f"burst cell (rate={rate}, wear={threshold}) not measured")


def check_floors(
    results: dict,
    min_ft_delivery: float,
    max_ft_inflation: float,
    max_reconvergence: int,
    min_reroute_gain: float,
    min_burst_delivery: float,
    burst_rate: float,
    wear_threshold: float,
    min_pillar_delivery: float,
) -> list:
    failures = []
    ft = results["degradation"]["ft_table"]
    wf = results["degradation"]["west_first"]

    healthy = ft[0]
    if healthy["delivery_rate"] < 1.0:
        failures.append(
            f"healthy ft_table mesh delivered only "
            f"{healthy['delivery_rate']:.3f} of injected packets"
        )
    worst = ft[-1]
    if worst["delivery_rate"] < min_ft_delivery:
        failures.append(
            f"ft_table delivery {worst['delivery_rate']:.3f} with "
            f"{worst['kills']} dead links is below the "
            f"{min_ft_delivery:.2f} floor"
        )
    if worst["latency_inflation"] > max_ft_inflation:
        failures.append(
            f"ft_table latency inflation {worst['latency_inflation']:.2f}x "
            f"with {worst['kills']} dead links exceeds the "
            f"{max_ft_inflation:.1f}x ceiling"
        )
    for row in ft:
        if row["hit_cycle_limit"]:
            failures.append(
                f"ft_table level {row['kills']} never finished its drain "
                "(hit_cycle_limit)"
            )
        if row["reconvergence_cycles"] > max_reconvergence:
            failures.append(
                f"ft_table level {row['kills']} took "
                f"{row['reconvergence_cycles']} cycles to reconverge, over "
                f"the {max_reconvergence} ceiling"
            )
    gain = worst["delivery_rate"] - wf[-1]["delivery_rate"]
    if gain < min_reroute_gain:
        failures.append(
            f"fault-aware rerouting gains only {gain:.3f} delivery over "
            f"west_first at {worst['kills']} kills, below the "
            f"{min_reroute_gain:.2f} floor — the reroute machinery is not "
            "earning its keep"
        )

    pillar = results["pillar"]
    if pillar[0]["delivery_rate"] < 1.0:
        failures.append(
            f"healthy 3D stack delivered only "
            f"{pillar[0]['delivery_rate']:.3f} of injected packets"
        )
    worst_pillar = pillar[-1]
    if worst_pillar["delivery_rate"] < min_pillar_delivery:
        failures.append(
            f"pillar-kill delivery {worst_pillar['delivery_rate']:.3f} with "
            f"{worst_pillar['kills']} dead TSV pillars is below the "
            f"{min_pillar_delivery:.2f} floor"
        )
    for row in pillar:
        if row["hit_cycle_limit"]:
            failures.append(
                f"pillar level {row['kills']} never finished its drain "
                "(hit_cycle_limit)"
            )

    burst = results["burst"]
    clean = _burst_cell(burst, 0.0, None)
    if clean["delivery_rate"] < 1.0:
        failures.append(
            f"burst-free cell delivered only {clean['delivery_rate']:.3f}"
        )
    stormy = _burst_cell(burst, burst_rate, wear_threshold)
    if stormy["delivery_rate"] < min_burst_delivery:
        failures.append(
            f"burst-storm delivery {stormy['delivery_rate']:.3f} (rate "
            f"{burst_rate}, wear {wear_threshold}) is below the "
            f"{min_burst_delivery:.2f} floor"
        )
    if stormy["intermittent_strikes"] == 0:
        failures.append("the burst storm landed zero intermittent strikes")
    if stormy["escalations"] < 1:
        failures.append(
            "the wear-out lifecycle never escalated a site in the storm "
            "cell — the soft-to-hard path is not engaging"
        )
    if stormy["hit_cycle_limit"]:
        failures.append("the burst-storm cell never finished its drain")
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"trajectory file to append to (default {DEFAULT_OUTPUT.name})",
    )
    parser.add_argument("--label", default="", help="free-form record label")
    parser.add_argument(
        "--check", action="store_true",
        help="enforce the resilience floors; exit 1 on violation",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="measure (and --check) without writing the trajectory file",
    )
    parser.add_argument("--min-ft-delivery", type=float, default=0.93)
    parser.add_argument("--max-ft-inflation", type=float, default=1.5)
    parser.add_argument("--max-reconvergence", type=int, default=2000)
    parser.add_argument("--min-reroute-gain", type=float, default=0.01)
    parser.add_argument("--min-burst-delivery", type=float, default=0.90)
    parser.add_argument("--min-pillar-delivery", type=float, default=0.90)
    args = parser.parse_args(argv)

    results = measure()
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "label": args.label,
        "git_rev": git_rev(),
        "scenario": SCENARIO,
        "degradation": results["degradation"],
        "pillar": results["pillar"],
        "burst": results["burst"],
    }

    if not args.no_append:
        history = []
        if args.output.exists():
            history = json.loads(args.output.read_text())
        history.append(record)
        args.output.write_text(json.dumps(history, indent=2) + "\n")
        print(f"appended record {len(history)} to {args.output}", file=sys.stderr)

    if args.check:
        stormy_rate = max(SCENARIO["burst"]["burst_rates"])
        stormy_wear = next(
            t for t in SCENARIO["burst"]["wear_thresholds"] if t is not None
        )
        failures = check_floors(
            results,
            args.min_ft_delivery,
            args.max_ft_inflation,
            args.max_reconvergence,
            args.min_reroute_gain,
            args.min_burst_delivery,
            stormy_rate,
            stormy_wear,
            args.min_pillar_delivery,
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("all resilience floors hold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
