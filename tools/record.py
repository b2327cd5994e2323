#!/usr/bin/env python
"""Regenerate, or with --check diff, the repo's tracked truths.

Each artefact is a deterministic JSON at the repo root — no timestamp, no
revision, seeded runs, sorted keys — built by one pure function:

* ``CERT_routing`` — connectivity, livelock- and deadlock-freedom of the
  standard platforms under fault sweeps (docs/VERIFICATION.md, ~20 s);
* ``RESIL_noc`` — delivery, latency inflation and reconvergence under link,
  TSV-pillar and burst faults (docs/FAULTS.md, ~30 s);
* ``CLAIMS_paper`` — every paper figure at its default scale with the
  claims it carries, and the measured tables of EXPERIMENTS.md between its
  ``<!-- measured:FIGURE.TABLE FORMAT -->`` markers (~150 s).

Usage::

    python tools/record.py [NAME ...]            # rewrite the files
    python tools/record.py --check [NAME ...]    # the CI gate

``--check`` regenerates in memory and fails when a file differs by a byte
from what is committed, when a certificate target violates its ``expect``
block, or when a claim does not hold and is not a listed known deviation.
Each artefact's build time is printed to stderr beside its verdict; it is
never written into a file.
A change that moves a number therefore shows up as a reviewable diff, and
one that breaks a claim cannot be hidden by regenerating.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
import time
from typing import Any, Callable, Dict, List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.verify import (  # noqa: E402
    build_standard_certificate,
    check_expectations,
)
from repro.experiments.common import claim_failures  # noqa: E402
from repro.experiments.paper import build_paper_claims  # noqa: E402
from repro.experiments.resilience import build_resilience_record  # noqa: E402


def certificate_failures(certificate: Dict[str, Any]) -> List[str]:
    return [
        failure
        for entry in certificate["targets"]
        for failure in check_expectations(entry, entry["expect"])
    ]


#: name -> (build() -> payload, failures(payload) -> problems); the file is
#: ``<name>.json`` at the repo root.
ARTEFACTS = {
    "CERT_routing": (build_standard_certificate, certificate_failures),
    "RESIL_noc": (build_resilience_record, claim_failures),
    "CLAIMS_paper": (build_paper_claims, claim_failures),
}

_MEASURED = re.compile(
    r"(<!-- measured:(\w+)\.(\d+) (\S+) -->\n).*?(<!-- /measured -->)", re.S
)


def measured_blocks(text: str, figures: Dict[str, Any]) -> str:
    """``text`` with every measured block rewritten from ``figures``."""

    def block(match: "re.Match[str]") -> str:
        opening, figure, index, fmt, closing = match.groups()
        table = figures[figure]["tables"][int(index)]
        series = table["series"]
        header = ["error rate" if table["log_x"] else "injection rate"]
        header += [column["label"] for column in series]
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for i, x in enumerate(table["xs"]):
            # 1e-5, not 1e-05: the ledger's Figure 5 check reads this cell.
            label = f"{x:.0e}".replace("e-0", "e-") if table["log_x"] else str(x)
            cells = [format(column["values"][i], fmt) for column in series]
            lines.append("| " + " | ".join([label, *cells]) + " |")
        return opening + "\n".join(lines) + "\n" + closing

    return _MEASURED.sub(block, text)


def files_of(
    name: str, payload: Dict[str, Any], root: pathlib.Path
) -> Dict[pathlib.Path, str]:
    """What an artefact owns: its JSON and, when it carries figures, the
    measured blocks of EXPERIMENTS.md."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    files = {root / f"{name}.json": text}
    if "figures" in payload:
        document = root / "EXPERIMENTS.md"
        files[document] = measured_blocks(
            document.read_text(encoding="utf-8"), payload["figures"]
        )
    return files


def record(
    name: str,
    build: Callable[[], Dict[str, Any]],
    failures: Callable[[Dict[str, Any]], List[str]],
    root: pathlib.Path,
    check: bool,
) -> int:
    """Build one artefact; write its files, or with ``check`` compare them.
    Its build's wall time goes to stderr with the verdict, out of band."""
    start = time.perf_counter()
    payload = build()
    wall = f"{time.perf_counter() - start:.1f} s wall"
    problems = failures(payload)
    for path, text in files_of(name, payload, root).items():
        if not check:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.name}", file=sys.stderr)
        elif not path.exists():
            problems.append(f"{path.name} is not committed")
        elif path.read_text(encoding="utf-8") != text:
            problems.append(
                f"{path.name} is stale: regenerate with "
                f"`python tools/record.py {name}` and commit the diff"
            )
    for problem in problems:
        print(f"FAIL: {name}: {problem}", file=sys.stderr)
    if check and not problems:
        print(f"{name}: up to date, every expectation holds ({wall})", file=sys.stderr)
    return 1 if problems else 0


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate in memory, diff against the committed files and "
        "enforce every expectation and claim; exit 1 on any mismatch",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help=f"artefacts to build (default all): {', '.join(ARTEFACTS)}",
    )
    args = parser.parse_args(argv)
    # Not ``choices=``: argparse rejects an empty ``nargs="*"`` list with it.
    for name in args.names:
        if name not in ARTEFACTS:
            parser.error(f"unknown artefact {name!r}: not one of {list(ARTEFACTS)}")
    status = 0
    for name in args.names or ARTEFACTS:
        status |= record(name, *ARTEFACTS[name], REPO_ROOT, args.check)
    return status


if __name__ == "__main__":
    sys.exit(main())
