"""``repro lint`` — the static NoC linter over config files or flags."""

from __future__ import annotations

import argparse
from typing import Any

from repro import api
from repro.cli.common import add_config_flags, add_json_flag, config_overrides, emit


def add_parser(sub: Any) -> None:
    lint = sub.add_parser(
        "lint",
        help="statically check config files (or flags) for NoC hazards",
        description=(
            "Run the NOC0xx rule catalogue and the channel-dependency-graph "
            "deadlock-freedom verifier over JSON config files, directories "
            "of them, or a config assembled from the same flags 'run' "
            "accepts. Exit status 1 if any ERROR diagnostic fires."
        ),
    )
    add_config_flags(lint)
    lint.add_argument(
        "--rules", action="store_true", help="list the rule catalogue and exit"
    )
    lint.add_argument(
        "--no-cdg",
        action="store_true",
        help="skip the channel-dependency-graph pass (fast, config rules only)",
    )
    lint.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    add_json_flag(lint, "diagnostics")


def handler(args: argparse.Namespace) -> int:
    if args.rules:
        print(api.rule_catalogue())
        return 0
    cdg = not args.no_cdg
    config = None
    if args.paths:
        report = api.lint_paths(args.paths, cdg=cdg)
    else:
        # The dict, not a built config: what the constructors would reject
        # is lint's to diagnose.
        config = api.config_dict(**config_overrides(args))
        report = api.lint_dict(config, cdg=cdg, source="<flags>")
    emit(args, "lint", report.to_dicts(), report.format_text, config=config)
    if args.strict and report.warnings:
        return 1
    return report.exit_code
