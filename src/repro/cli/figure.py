"""``repro figure N`` — regenerate a paper figure as tables and ASCII charts."""

from __future__ import annotations

import argparse
from typing import Any

from repro.cli.common import usage_errors
from repro.report import render_figure

#: Figures measured over a fixed cycle count, not a message count.
_FIXED_DURATION = ("8", "9", "10")


def add_parser(sub: Any) -> None:
    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", choices=["5", "6", "7", "8", "9", "10", "13"])
    fig.add_argument(
        "--messages",
        type=int,
        help="ejected messages per sweep point (default: the experiment's "
        "own; figures 8, 9 and 10 run a fixed number of cycles and take no "
        "count)",
    )
    fig.add_argument("--no-chart", action="store_true")


def handler(args: argparse.Namespace) -> int:
    from repro.experiments import (
        deadlock_demo,
        figure5,
        figure6_7,
        figure8_9,
        figure13,
    )

    number = args.number
    with usage_errors():
        if number in _FIXED_DURATION and args.messages is not None:
            raise ValueError(
                f"figure {number} is a fixed-duration figure: --messages "
                "does not apply"
            )
    if number == "10":
        deadlock_demo.main()
        return 0
    scale = {}
    if args.messages is not None:
        scale = {"num_messages": args.messages, "warmup": args.messages // 5}
    # Figures 6/7 and 8/9 are two tables of one sweep each.
    module, run, pick = {
        "5": (figure5, figure5.run_figure5, slice(None)),
        "6": (figure6_7, figure6_7.run_figure6_7, slice(0, 1)),
        "7": (figure6_7, figure6_7.run_figure6_7, slice(1, 2)),
        "8": (figure8_9, figure8_9.run_figure8_9, slice(0, 1)),
        "9": (figure8_9, figure8_9.run_figure8_9, slice(1, 2)),
        "13": (figure13, figure13.run_figure13, slice(None)),
    }[number]
    results = run(**scale)
    for table in module.tables(results)[pick]:
        print(render_figure(*table, chart=not args.no_chart))
        print()
    return 0
