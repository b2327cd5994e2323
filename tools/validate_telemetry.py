#!/usr/bin/env python
"""Validate a telemetry NDJSON stream (CI smoke check).

Reads one or more NDJSON files produced by ``repro run --telemetry`` (or
stdin when no paths are given) and checks every line against the
``repro/v1`` schema: a well-formed header envelope, known event kinds,
integer cycles and node ids, numeric sample values, and every line spelled
as the canonical dump of its object (sorted keys, compact separators), as
the exporter writes it.  Exits non-zero and prints one problem per line
when anything is off.

Usage::

    python tools/validate_telemetry.py out.ndjson [more.ndjson ...]
    repro run --telemetry /dev/stdout ... | python tools/validate_telemetry.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    from repro.telemetry import validate_ndjson_lines

    argv = sys.argv[1:] if argv is None else argv
    sources = argv or ["-"]
    failed = False
    for source in sources:
        if source == "-":
            name, lines = "<stdin>", sys.stdin.read().splitlines()
        else:
            name, lines = source, Path(source).read_text().splitlines()
        problems = validate_ndjson_lines(lines)
        if problems:
            failed = True
            for problem in problems:
                print(f"{name}: {problem}")
        else:
            print(f"{name}: OK ({len(lines)} lines)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
