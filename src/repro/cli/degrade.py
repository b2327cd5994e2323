"""``repro degrade`` — the graceful-degradation campaigns: progressive
link (or TSV-pillar) kills, or with ``--burst`` the intermittent/wear-out
sweep.  One handler; ``--burst`` picks the driver and the column set."""

from __future__ import annotations

import argparse
import dataclasses
from typing import Any, Callable, List, Sequence, Tuple

from repro import api
from repro.cli.common import (
    Untyped,
    add_json_flag,
    add_shape_flags,
    emit,
    parse_shape_flags,
    usage_errors,
)
from repro.report import render_comparison_table, render_series
from repro.types import RoutingAlgorithm


def add_parser(sub: Any) -> None:
    degrade = sub.add_parser(
        "degrade",
        help="graceful-degradation campaign: progressive random link kills",
        description=(
            "Kill 0..N randomly chosen links (the last one mid-run) on a "
            "mesh running fault-aware table routing and report delivery "
            "rate, reachable-pair fraction, latency inflation and "
            "reconvergence time per kill level."
        ),
    )
    add_shape_flags(degrade, link_latency=None)
    degrade.add_argument(
        "--kills",
        type=int,
        default=Untyped(8),
        help="maximum number of dead links (default 8)",
    )
    degrade.add_argument(
        "--kill-pillars",
        action="store_true",
        help="kill whole TSV pillars (every vertical link of an (x,y) "
        "column) instead of single links; needs a 3-axis --shape",
    )
    degrade.add_argument("--rate", type=float, default=0.1, help="flits/node/cycle")
    degrade.add_argument(
        "--inject-cycles", type=int, default=1500, help="injection window length"
    )
    degrade.add_argument("--seed", type=int, default=17)
    degrade.add_argument(
        "--routing",
        choices=["ft_table", "xy", "west_first", "fully_adaptive"],
        default="ft_table",
        help="routing algorithm under test (default: fault-aware ft_table)",
    )
    degrade.add_argument(
        "--burst",
        action="store_true",
        help="sweep intermittent burst intensity x wear-out rate instead "
        "of progressive clean kills (docs/FAULTS.md); --kills, "
        "--kill-pillars and --link-latency do not apply",
    )
    degrade.add_argument(
        "--burst-rates",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3, 0.6],
        help="on-window strike probabilities to sweep (with --burst)",
    )
    degrade.add_argument(
        "--wear-thresholds",
        type=float,
        nargs="+",
        default=[200.0, 50.0],
        help="strike-count escalation thresholds to sweep (with --burst); "
        "an intermittent-only row with no escalation is always included",
    )
    degrade.add_argument(
        "--burst-sites",
        type=int,
        default=6,
        help="number of seeded links the burst sweep stresses (with --burst)",
    )
    degrade.add_argument(
        "--invariant-checks",
        action="store_true",
        help="run the per-cycle invariant sanitizer during the campaign",
    )
    add_json_flag(degrade, "the curve")
    degrade.add_argument("--no-chart", action="store_true")


Column = Tuple[str, Callable[[Any], object]]

_KILL_COLUMNS: Sequence[Column] = (
    ("delivery", lambda p: f"{p.delivery_rate:.4f}"),
    ("reachable", lambda p: f"{p.reachable_fraction:.4f}"),
    ("latency", lambda p: f"{p.avg_latency:.2f}"),
    ("inflation", lambda p: f"{p.latency_inflation:.3f}"),
    ("reconv (cyc)", lambda p: p.reconvergence_cycles),
    ("lost", lambda p: p.packets_lost),
)

_BURST_COLUMNS: Sequence[Column] = (
    ("burst rate", lambda p: f"{p.burst_rate:.2f}"),
    (
        "wear thresh",
        lambda p: "-" if p.wear_threshold is None else f"{p.wear_threshold:g}",
    ),
    ("delivery", lambda p: f"{p.delivery_rate:.4f}"),
    ("inflation", lambda p: f"{p.latency_inflation:.3f}"),
    ("strikes", lambda p: p.intermittent_strikes),
    ("escalated", lambda p: p.escalations),
    ("lost", lambda p: p.packets_lost),
)


def _table(columns: Sequence[Column], points: List[Any], title: str) -> str:
    return render_comparison_table(
        [header for header, _ in columns],
        [[cell(p) for _, cell in columns] for p in points],
        title,
    )


def handler(args: argparse.Namespace) -> int:
    shape, link_latency = parse_shape_flags(args)
    # The envelope's ``config`` is the driver's keyword set, as typed.
    campaign = {
        "shape": shape,
        "injection_rate": args.rate,
        "inject_cycles": args.inject_cycles,
        "seed": args.seed,
        "routing": args.routing,
    }
    if args.burst:
        command, driver = "degrade_burst", api.degrade_burst
        campaign.update(
            burst_rates=list(args.burst_rates),
            wear_thresholds=[None, *args.wear_thresholds],
            burst_sites=args.burst_sites,
        )
    else:
        command, driver = "degrade", api.degrade
        campaign.update(
            link_latency=link_latency,
            kill_pillars=args.kill_pillars,
            max_kills=int(args.kills),
        )
    keywords = dict(
        campaign,
        routing=RoutingAlgorithm(args.routing),
        invariant_checks=args.invariant_checks,
    )
    if args.burst:
        keywords["num_sites"] = keywords.pop("burst_sites")
    with usage_errors():
        for flag, typed in (
            ("--link-latency", args.link_latency is not None),
            ("--kills", not isinstance(args.kills, Untyped)),
            ("--kill-pillars", args.kill_pillars),
        ):
            if args.burst and typed:
                raise ValueError(
                    f"{flag} does not apply to --burst (the burst sweep "
                    "stresses --burst-sites single-cycle links)"
                )
        # One call validates (kill counts, pillar shapes, site counts), then
        # simulates.
        points = driver(**keywords)
    dims = "x".join(str(d) for d in shape)

    def text() -> str:
        if args.burst:
            return _table(
                _BURST_COLUMNS,
                points,
                f"Burst/wear-out degradation — {dims} mesh, "
                f"{args.burst_sites} stressed links (seed {args.seed})",
            )
        unit = "dead pillars" if args.kill_pillars else "dead links"
        out = _table(
            [(unit, lambda p: p.kills), *_KILL_COLUMNS],
            points,
            f"Graceful degradation — {dims} mesh, "
            f"{args.routing} routing (seed {args.seed})",
        )
        if not args.no_chart:
            out += "\n\n" + render_series(
                "delivery rate & latency inflation vs dead links",
                [float(p.kills) for p in points],
                {
                    "delivery": [p.delivery_rate for p in points],
                    "inflation": [p.latency_inflation for p in points],
                },
            )
        return out

    emit(
        args,
        command,
        [dataclasses.asdict(p) for p in points],
        text,
        config=campaign,
    )
    return 0
