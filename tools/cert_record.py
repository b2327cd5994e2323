#!/usr/bin/env python
"""Regenerate and check the ``CERT_routing.json`` routing certificate.

The certificate (built by :func:`repro.analysis.verify.build_standard_certificate`)
statically proves connectivity, livelock-freedom and deadlock-freedom for the
repo's standard platforms, including exhaustive single-link-kill and seeded
multi-kill robustness sweeps of the fault-aware table routing.  Unlike a
performance measurement (the ledger, docs/PERFORMANCE.md) it is fully
deterministic — no timestamps, fixed sweep seeds — so CI regenerates it and
*diffs* it against the committed artifact: any resilience regression (a
platform losing its certificate, a witness cycle changing) shows up as a
failing job and a reviewable diff.

Usage::

    PYTHONPATH=src:. python tools/cert_record.py            # rewrite artifact
    PYTHONPATH=src:. python tools/cert_record.py --check    # CI gate

``--check`` regenerates the certificate in memory and fails when

* it differs from the committed ``CERT_routing.json`` (stale artifact), or
* any target violates its pinned ``expect`` block (e.g. the 5x5 ft_table
  mesh no longer certifies under exhaustive single-link kills) — this
  catches regressions even if someone regenerates the artifact without
  looking at it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.verify import (  # noqa: E402
    build_standard_certificate,
    check_expectations,
)

DEFAULT_OUTPUT = REPO_ROOT / "CERT_routing.json"


def render(certificate: dict) -> str:
    return json.dumps(certificate, indent=2, sort_keys=True) + "\n"


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"certificate file (default {DEFAULT_OUTPUT.name})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate in memory, diff against the committed artifact and "
        "enforce every target's expect block; exit 1 on any mismatch",
    )
    args = parser.parse_args(argv)

    certificate = build_standard_certificate()
    text = render(certificate)
    failures = []
    for entry in certificate["targets"]:
        failures.extend(check_expectations(entry, entry["expect"]))

    if args.check:
        if not args.output.exists():
            failures.append(f"{args.output.name} is not committed")
        elif args.output.read_text() != text:
            failures.append(
                f"{args.output.name} is stale: regenerate with "
                "`PYTHONPATH=src python tools/cert_record.py` and commit the diff"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"certificate up to date: {len(certificate['targets'])} targets, "
            "all expectations hold",
            file=sys.stderr,
        )
        return 0

    args.output.write_text(text)
    print(f"wrote {args.output}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"WARNING: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
