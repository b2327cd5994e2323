"""``repro sweep`` — latency vs injection rate (saturation curves)."""

from __future__ import annotations

import argparse
from typing import Any

from repro import api
from repro.cli.common import (
    add_json_flag,
    add_shape_flags,
    emit,
    parse_shape_flags,
    usage_errors,
)
from repro.report import render_series


def add_parser(sub: Any) -> None:
    sweep = sub.add_parser("sweep", help="latency vs injection rate")
    add_shape_flags(sweep)
    sweep.add_argument(
        "--routing",
        choices=["xy", "west_first", "fully_adaptive"],
        default="xy",
    )
    sweep.add_argument("--messages", type=int, default=600)
    sweep.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45],
    )
    add_json_flag(sweep, "every point's result")


def handler(args: argparse.Namespace) -> int:
    shape, link_latency = parse_shape_flags(args)
    with usage_errors():
        config = api.load_config(
            shape=shape,
            link_latency=link_latency,
            retx_depth=api.min_retx_depth(link_latency),
            routing=args.routing,
            messages=args.messages,
            warmup=args.messages // 5,
            max_cycles=60_000,
        )
    results = api.sweep(config, rates=args.rates)

    def text() -> str:
        lines = [
            f"rate {rate:5.2f}: latency {result.avg_latency:8.2f} cycles"
            for rate, result in zip(args.rates, results)
        ]
        chart = render_series(
            f"Latency vs injection rate ({args.routing})",
            list(args.rates),
            {"latency": [result.avg_latency for result in results]},
        )
        return "\n".join(lines + ["", chart])

    emit(
        args,
        "sweep",
        [
            {"rate": rate, "result": api.result_to_dict(result, include_config=False)}
            for rate, result in zip(args.rates, results)
        ],
        text,
        config={
            "routing": args.routing,
            "messages": args.messages,
            "rates": list(args.rates),
            "shape": shape,
            "link_latency": link_latency,
        },
    )
    return 0
