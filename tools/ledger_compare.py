#!/usr/bin/env python
"""Parent-vs-change comparison of the performance ledger (ROADMAP 2(a)).

    python tools/ledger_compare.py [--pairs N] [--seconds S] BASE_REV

Checks ``BASE_REV`` out beside this tree's files (``.ledger_compare/base``, a
detached git worktree inside the checkout, so both sides measure their fsyncs
on one filesystem), then for every pair and every workload of
``BENCHMARK.json`` runs the benchmark's own command on both sides, alternating
which side goes first, and prints one row per workload and end-to-end metric:
both medians, the change in the metric's *worse* direction, the parent's own
inter-quartile spread, pairs won, and a verdict.  Command, workloads, run
length and every bound come from ``BENCHMARK.json``; nothing is tuned here.

``ok``          the change's median is no worse than the parent's by more
                than the metric's bound;
``unresolved``  worse than the bound, but the parent's own runs spread wider
                than the bound and the two sides' runs overlap: noise this
                size hides the answer — run more pairs on a quieter host;
``REGRESSED``   worse than the bound and the runs say so.

Exit status 1 on any ``REGRESSED`` or a higher failed share; 2 when there is
nothing to compare — ``BENCHMARK.json`` or a file under its ``paths`` differs
between the trees (a ``benchmark`` change re-baselines instead), or the two
sides report different filesystems.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BASE_TREE = ROOT / ".ledger_compare" / "base"


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``
    (negative: better)."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def spread(runs: Sequence[float]) -> float:
    """Inter-quartile distance of ``runs`` as a share of their median."""
    if len(runs) < 2:
        return 0.0
    low, _, high = statistics.quantiles(runs, n=4, method="inclusive")
    return (high - low) / statistics.median(runs)


def verdict(
    runs_parent: Sequence[float],
    runs_change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    parent, change = statistics.median(runs_parent), statistics.median(runs_change)
    if worsening(parent, change, better) <= bound:
        return "ok"
    sign = 1 if better == "lower" else -1  # larger sign * run: a worse run
    overlap = min(sign * r for r in runs_change) <= max(sign * r for r in runs_parent)
    return "unresolved" if spread(runs_parent) > bound and overlap else "REGRESSED"


def benchmark_files(tree: Path) -> Dict[str, bytes]:
    """``BENCHMARK.json`` and every file under its ``paths``, scratch
    (dot-directories, ``__pycache__``) aside."""
    spec = tree / "BENCHMARK.json"
    if not spec.is_file():  # a commit from before the ledger
        return {}
    files = [spec]
    for entry in json.loads(spec.read_text(encoding="utf-8"))["paths"]:
        files += [f for f in sorted((tree / entry).rglob("*")) if f.is_file()]
    out = {}
    for file in files:
        parts = file.relative_to(tree).parts
        if not any(p == "__pycache__" or p.startswith(".") for p in parts[:-1]):
            out["/".join(parts)] = file.read_bytes()
    return out


@contextlib.contextmanager
def checked_out(rev: str) -> Iterator[Path]:
    def worktree(*args: str, check: bool = True) -> None:
        done = subprocess.run(
            ["git", "worktree", *args], cwd=ROOT, capture_output=True, text=True
        )
        if check and done.returncode:
            raise SystemExit(f"git worktree {args[0]}: {done.stderr.strip()}")

    worktree("remove", "--force", str(BASE_TREE), check=False)  # a killed run's
    worktree("add", "--detach", str(BASE_TREE), rev)
    try:
        yield BASE_TREE
    finally:
        worktree("remove", "--force", str(BASE_TREE))
        shutil.rmtree(BASE_TREE.parent, ignore_errors=True)


def run_once(
    tree: Path, command: List[str], workload: str, seed: int, seconds: float
) -> Tuple[str, Dict[str, Any]]:
    """One benchmark run in ``tree``: its ``filesystem=`` and result object."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # Both sides compile from source on every start, as the PR pipeline's
    # fresh directories do: a working tree's warm __pycache__ beside a fresh
    # worktree would hand one side 40 % of ``setup_s``.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = str(BASE_TREE.parent / "no-bytecode")
    argv = command + ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().split("\n")
    try:
        return lines[0].rpartition("filesystem=")[2], json.loads(lines[-1])
    except ValueError:  # the run died before its report
        return "", {"attempted": 1, "failed": 1, "metrics": {}}


def compare(base: Path, change: Path, pairs: int, seconds: float) -> int:
    if benchmark_files(base) != benchmark_files(change):
        print("nothing to compare: the benchmark itself differs between the trees")
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": base, "change": change}
    runs: Dict[Tuple[str, str, str], List[float]] = {}
    ops = {side: [0, 0] for side in trees}  # failed, attempted
    for pair in range(pairs):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            filesystems = set()
            for side in order:
                filesystem, result = run_once(
                    trees[side], spec["command"], workload, pair, seconds
                )
                filesystems.add(filesystem)
                ops[side][0] += result["failed"]
                ops[side][1] += result["attempted"]
                for name, entry in result["metrics"].items():
                    runs.setdefault((workload, name, side), []).append(entry["value"])
            if len(filesystems) > 1:
                print(f"nothing to compare: filesystems differ {sorted(filesystems)}")
                return 2
            print(f"pair {pair + 1}/{pairs} {workload}: {', '.join(order)}", flush=True)
    return report(spec, runs, ops)


def report(
    spec: Dict[str, Any],
    runs: Dict[Tuple[str, str, str], List[float]],
    ops: Dict[str, List[int]],
) -> int:
    """Print the verdict table and the failed/attempted line; the exit status."""
    print(
        f"\n{'workload':<30}{'metric':<18}{'parent':>10}{'change':>10}"
        f"{'worse by':>10}{'parent IQR':>12}{'won':>7}  verdict"
    )
    verdicts = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            parent = runs.get((workload, name, "parent"), [])
            changed = runs.get((workload, name, "change"), [])
            if not parent or not changed:
                print(f"{workload:<30}{name:<18}{'no runs':>10}")
                continue
            medians = statistics.median(parent), statistics.median(changed)
            won = sum(worsening(p, c, better) < 0 for p, c in zip(parent, changed))
            verdicts.append(verdict(parent, changed, better, metric["bound"]))
            print(
                f"{workload:<30}{name:<18}{medians[0]:>10.4g}{medians[1]:>10.4g}"
                f"{worsening(*medians, better):>+10.1%}{spread(parent):>12.1%}"
                f"{f'{won}/{len(parent)}':>7}  {verdicts[-1]}"
            )
    print(
        "failed/attempted: "
        + ", ".join(f"{side} {failed}/{tried}" for side, (failed, tried) in ops.items())
    )
    shares = {side: failed / max(tried, 1) for side, (failed, tried) in ops.items()}
    return int("REGRESSED" in verdicts or shares["change"] > shares["parent"])


def main(argv: "Sequence[str] | None" = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    with checked_out(args.base_rev) as base:
        return compare(base, ROOT, args.pairs, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
