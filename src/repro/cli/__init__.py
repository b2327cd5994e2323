"""Command-line interface: ``python -m repro <command>``.

Every subcommand is the same three steps — parse flags into
:mod:`repro.api` overrides, make one facade call, render what it returns —
in a module of its own; the flag vocabulary, the ``--json`` emitter and
the usage-error policy are shared once, in :mod:`repro.cli.common`.
Nothing here imports the library except through :mod:`repro.api` (plus
:mod:`repro.report` to render, :mod:`repro.types` for flag choices and the
figure/table modules of :mod:`repro.experiments`).

* ``run`` — one simulation, platform/fault/workload knobs as flags.
* ``lint`` — the static ``NOC0xx`` linter over config files or flags.
* ``verify`` — statically certify routing: connectivity, livelock- and
  deadlock-freedom, optionally under link-kill sweeps.
* ``figure {5,6,7,8,9,10,13}`` — regenerate a paper figure as tables and
  ASCII charts; ``table1`` — the AC-unit area/power table.
* ``degrade`` — the graceful-degradation campaigns (progressive link or
  pillar kills; ``--burst``: intermittent/wear-out sweep).
* ``campaign`` — run or ``--resume`` a spec of config variants under the
  durable campaign service (docs/CAMPAIGNS.md).
* ``sweep`` — latency vs injection rate (saturation curves).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.cli import campaign, degrade, figure, lint, run, sweep, table1, verify
from repro.cli.common import UsageError

#: Subcommand name -> (add_parser, handler), in ``--help`` order.
COMMANDS = {
    "run": (run.add_parser, run.handler),
    "lint": (lint.add_parser, lint.handler),
    "verify": (verify.add_parser, verify.handler),
    "figure": (figure.add_parser, figure.handler),
    "table1": (table1.add_parser, table1.handler),
    "degrade": (degrade.add_parser, degrade.handler),
    "campaign": (campaign.add_parser, campaign.handler),
    "sweep": (sweep.add_parser, sweep.handler),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant NoC simulator (Park et al., DSN 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add_parser, _ in COMMANDS.values():
        add_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler = COMMANDS[args.command]
    try:
        return handler(args)
    except UsageError:
        return 2
    except BrokenPipeError:
        # Output piped into `head`/`grep` that exited early; suppress the
        # traceback and keep the diagnostic exit code meaningful.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1

