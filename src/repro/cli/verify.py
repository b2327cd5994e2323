"""``repro verify`` — the routing certification engine's front end."""

from __future__ import annotations

import argparse
from typing import Any, List, Tuple

from repro import api
from repro.cli.common import (
    add_config_flags,
    add_json_flag,
    config_overrides,
    emit,
    usage_errors,
)
from repro.report import certified, render_certificates


def add_parser(sub: Any) -> None:
    verify = sub.add_parser(
        "verify",
        help="statically certify routing (connectivity, livelock, deadlock)",
        description=(
            "Prove — without simulating — that the routing a config will "
            "run is connected (every expected src/dst pair has a guaranteed "
            "route), livelock-free (loop-free traversal with a strictly "
            "decreasing progress metric) and deadlock-free (acyclic channel "
            "dependency graph).  Scheduled permanent faults are fully "
            "applied first, so the certificate covers the degraded network. "
            "Exit status 1 if any certificate fails."
        ),
    )
    add_config_flags(verify)
    verify.add_argument(
        "--single-link-kills",
        action="store_true",
        help="additionally certify the fault-aware rebuild for every "
        "possible single-link kill (exhaustive)",
    )
    verify.add_argument(
        "--multi-kill",
        action="append",
        type=int,
        default=[],
        metavar="K",
        help="additionally certify seeded random K-link-kill samples "
        "(repeatable for several K)",
    )
    verify.add_argument(
        "--samples",
        type=int,
        default=12,
        help="trials per --multi-kill sweep (default 12)",
    )
    verify.add_argument(
        "--sweep-seed",
        type=int,
        default=2006,
        help="seed for the multi-kill samples (default 2006)",
    )
    add_json_flag(verify, "certificates")


def handler(args: argparse.Namespace) -> int:
    config = None
    targets: List[Tuple[str, Any]]
    if args.paths:
        # The walker `repro lint PATH` uses: same files, same order.
        targets = [
            (str(file), file)
            for path in args.paths
            for file in api.config_files(path)
        ]
    else:
        config = api.config_dict(**config_overrides(args))
        targets = [("<flags>", config)]
    with usage_errors():
        if not targets:
            raise ValueError("no *.json config files found")
    entries = []
    for name, target in targets:
        with usage_errors(f"{name}: "):
            entry = api.verify(
                target,
                single_link_kills=args.single_link_kills,
                multi_kills=args.multi_kill,
                samples=args.samples,
                sweep_seed=args.sweep_seed,
            )
        entries.append({**entry, "name": name})
    emit(args, "verify", entries, lambda: render_certificates(entries), config=config)
    return 0 if all(certified(entry) for entry in entries) else 1
