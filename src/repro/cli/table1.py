"""``repro table1`` — the AC-unit area/power table."""

from __future__ import annotations

import argparse
from typing import Any


def add_parser(sub: Any) -> None:
    sub.add_parser("table1", help="the AC-unit overhead table")


def handler(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import main as table1_main

    table1_main()
    return 0
