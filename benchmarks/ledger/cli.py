"""Command line of the layered performance ledger.

One workload (the form the benchmark driver calls)::

    python3 benchmarks/ledger --workload NAME --seed N --seconds S --trace 0|1

repeats the workload's pinned unit for ``S`` seconds, checks every output and
prints, as the last line of stdout, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Without
``--workload`` every workload runs, one fresh child process after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger.tracer import Tracer, per_layer_metrics
from benchmarks.ledger.workloads import (
    SCALES,
    WORKLOADS,
    Unit,
    Workload,
    filesystem_type,
)

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = PACKAGE_DIR / "golden.json"
VARIANCE_PATH = PACKAGE_DIR / "variance.json"
#: On the checkout's own filesystem, never tmpfs: the journal, cache and
#: checkpoint fsyncs the campaign workload measures must be real.
WORK_DIR = PACKAGE_DIR / ".work"
#: Set-ups timed per time-boxed run; ``setup_s`` is the fastest.
SETUP_SAMPLES = 9
#: Per-layer self times must explain this share of the traced wall.
SELF_TIME_TOLERANCE = 0.05


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def load_golden() -> Dict[str, Dict[str, List[str]]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# -- one workload ---------------------------------------------------------------


def set_up(name: str, scale: str, seed: int) -> Tuple[Workload, Optional[List[str]]]:
    """Everything between process start and the first timed call (with the
    imports above): work directory, configs, golden digests."""
    workdir = WORK_DIR / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](scale, seed, workdir)
    golden = load_golden().get(scale, {}).get(name) if seed == 0 else None
    return workload, golden


def child_command(args: argparse.Namespace, *extra: str) -> List[str]:
    return [
        sys.executable,
        str(PACKAGE_DIR),
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        *extra,
    ]


def time_set_up(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter until it is ready to call
    the workload (``perf_counter`` is one system-wide clock)."""
    start = time.perf_counter()
    done = subprocess.run(
        child_command(args, "--workload", args.workload, "--setup-only"),
        check=True,
        capture_output=True,
        text=True,
    )
    return float(done.stdout.split()[-1]) - start


def repeat(
    workload: Workload,
    seconds: float,
    least: int,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[List[float]], List[Unit], Any]:
    """Run the workload's unit at least ``least`` times and until ``seconds``
    have passed; returns each repetition's segment walls, the summaries and
    the last raw output."""
    walls: List[List[float]] = []
    units: List[Unit] = []
    raw = None
    workload.tracer = tracer
    deadline = time.perf_counter() + seconds
    while len(units) < least or time.perf_counter() < deadline:
        if tracer is None:
            parts, raw = workload.run(len(units))
        else:
            with tracer.span("unit", "harness", scope=True):
                parts, raw = workload.run(len(units))
        walls.append(parts)
        units.append(workload.summarize(raw))
    workload.tracer = None
    return walls, units, raw


def quiet_wall(walls: Sequence[Sequence[float]]) -> float:
    """The unit's wall-clock on an undisturbed host: every segment's fastest
    repetition, summed.  This sandbox's noise is one-sided — a neighbour
    halves the speed for tens of milliseconds at a time, for a share of the
    time that drifts over minutes — so a whole unit, and the median of a few,
    carries that share, while a sub-second segment often escapes it."""
    return sum(min(segment) for segment in zip(*walls))


class Verdict:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.fail(name)

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(problem)

    def units(self, units: Sequence[Unit], golden: Optional[List[str]]) -> None:
        """Count every unit's operations; each result must equal the golden
        digest (seed 0) or, without one, the first unit's."""
        expected = golden if golden is not None else units[0].digests
        against = "the golden digest" if golden is not None else "unit 0"
        for index, unit in enumerate(units):
            self.attempted += unit.ops
            self.failed += unit.failed
            self.problems += unit.problems
            wrong = sum(a != b for a, b in zip(unit.digests, expected))
            wrong += abs(len(unit.digests) - len(expected))
            if wrong:
                self.fail(f"unit {index}: {wrong} results differ from {against}", wrong)


def measure(args: argparse.Namespace) -> int:
    """Run one workload and print its metrics; 0 when every output is right."""
    name = args.workload
    if args.setup_only:
        set_up(name, args.scale, args.seed)
        print(repr(time.perf_counter()))
        return 0
    spec = load_spec()
    workload, golden = set_up(name, args.scale, args.seed)
    verdict = Verdict()
    tracer = None
    units: List[Unit] = []
    try:
        # Without a golden, two repetitions must at least agree.
        least = 1 if golden is not None or args.trace else 2
        # A traced run spends a quarter of its time box untraced: both walls
        # of ``trace.overhead_ratio`` need repetitions to find a quiet host.
        untraced_s = args.seconds / 4 if args.trace else args.seconds
        walls, units, raw = repeat(workload, untraced_s, least)
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workload.processes:
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        wall_s = quiet_wall(walls)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            traced_walls, traced_units, raw = repeat(
                workload, args.seconds - untraced_s, 1, tracer
            )
            units += traced_units
            values = per_layer_metrics(
                tracer, len(traced_units), units[0], wall_s, quiet_wall(traced_walls)
            )
            if not workload.processes:  # one process, so one call stack
                verdict.check(
                    "per-layer self time explains the traced wall",
                    self_time_gap(tracer) <= SELF_TIME_TOLERANCE,
                )
            with tracer.span("verify", "harness", scope=True):
                checks = workload.verify(raw, units[-1])
            values["checkpoint.load_s"] = tracer.total_s("load_checkpoint")
            tracer.remove()
            leftover = tracer.verify_removed()
            verdict.check(f"wrappers removed ({leftover})", not leftover)
            tracer.write(
                str(workload.workdir / "trace.json"),
                workload=name,
                scale=args.scale,
                seed=args.seed,
                units=len(traced_units),
            )
            section = spec["per_layer"]
        else:
            checks = workload.verify(raw, units[-1])
            # Last: every set-up empties the work directory, and a child that
            # ended before the workload would count into RUSAGE_CHILDREN.
            samples = SETUP_SAMPLES if args.seconds > 0 else 1
            setups = [time_set_up(args) for _ in range(samples)]
            values = {
                "wall_s": wall_s,
                "sim_cycles_per_s": units[0].cycles / wall_s,
                "setup_s": min(setups),
                "peak_rss_mb": usage / 1024,
            }
            section = spec["end_to_end"]
        verdict.units(units, golden)
        for check_name, passed in checks:
            verdict.check(check_name, passed)
    except Exception as exc:  # noqa: BLE001 — a crash is a failed operation
        if tracer is not None:
            tracer.remove()
        verdict.attempted += 1
        verdict.fail(f"{type(exc).__name__}: {exc}")
        values, section = {}, []

    for problem in verdict.problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    names = [metric["name"] for metric in section]
    if verdict.failed == 0 and sorted(names) != sorted(values):
        raise SystemExit(
            f"BENCHMARK.json and the harness disagree on {set(names) ^ set(values)}"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in section
        if m["name"] in values
    }
    print(
        f"{name}: scale={args.scale} seed={args.seed} units={len(units)} "
        f"filesystem={filesystem_type(WORK_DIR)}"
    )
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"{name} failure_rate = {verdict.failed / verdict.attempted:.6g} "
        f"(ops_attempted = {verdict.attempted})"
    )
    print(
        json.dumps(
            {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if verdict.failed == 0 else 1


def self_time_gap(tracer: Tracer) -> float:
    """Share of the traced units' wall that no layer's self time explains."""
    wall = sum(tracer.durations("unit"))
    layers = tracer.layer_self_s()
    explained = sum(s for layer, s in layers.items() if layer != "harness")
    return abs(wall - explained) / wall


# -- every workload -------------------------------------------------------------


def run_child(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, Any]:
    """One workload in a fresh child process; echoes its report and returns
    its result object."""
    done = subprocess.run(
        child_command(
            args,
            "--workload",
            workload,
            "--seconds",
            str(args.seconds),
            "--trace",
            str(trace),
        ),
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_set(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload of BENCHMARK.json, one after another."""
    out: Dict[str, Any] = {}
    for entry in load_spec()["workloads"]:
        name = entry["name"]
        runs = [run_child(args, name, trace) for trace in range(args.trace + 1)]
        out[name] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                metric: entry["value"]
                for run in runs
                for metric, entry in run["metrics"].items()
            },
        }
    return out


def run_all(args: argparse.Namespace) -> int:
    results = run_set(args)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def repeat_check(args: argparse.Namespace) -> int:
    """Two full sets back to back: every end-to-end metric of the second must
    be within its bound of the first.  Writes ``variance.json``."""
    spec = load_spec()
    sets = [run_set(args), run_set(args)]
    passed = all(r["correct"] for results in sets for r in results.values())
    gaps: Dict[str, Dict[str, float]] = {}
    for name in sets[0]:
        gaps[name] = {}
        for metric in spec["end_to_end"]:
            first, second = (s[name]["metrics"].get(metric["name"]) for s in sets)
            if first is None or second is None:
                continue
            gap = abs(second - first) / first
            gaps[name][metric["name"]] = gap
            ok = gap <= metric["bound"]
            passed = passed and ok
            print(
                f"{name} {metric['name']}: {first:.6g} vs {second:.6g} "
                f"{metric['unit']}, gap {gap:.2%} (bound {metric['bound']:.0%})"
                f"{'' if ok else '  EXCEEDED'}"
            )
    VARIANCE_PATH.write_text(
        json.dumps(
            {
                "scale": args.scale,
                "seed": args.seed,
                "seconds": args.seconds,
                "host": {
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "filesystem": filesystem_type(WORK_DIR),
                },
                "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
                "sets": sets,
                "gaps": gaps,
                "passed": passed,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"repeat check {'passed' if passed else 'FAILED'}; wrote {VARIANCE_PATH}")
    return 0 if passed else 1


def regen_golden() -> int:
    """Re-record ``golden.json`` (seed 0, every scale) from a clean ``src/``."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if status.returncode != 0 or status.stdout.strip():
        print(
            "refusing to regenerate golden.json: src/ has uncommitted changes "
            f"(or this is not a git checkout)\n{status.stdout}{status.stderr}",
            file=sys.stderr,
        )
        return 2
    golden: Dict[str, Dict[str, List[str]]] = {}
    for scale in SCALES:
        golden[scale] = {}
        for name in WORKLOADS:
            workload, _old = set_up(name, scale, 0)
            _walls, raw = workload.run(0)
            unit = workload.summarize(raw)
            if unit.failed:
                print(f"{name} at {scale}: {unit.problems}", file=sys.stderr)
                return 1
            golden[scale][name] = unit.digests
            print(f"{scale} {name}: {len(unit.digests)} digests")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="added to every base seed")
    parser.add_argument(
        "--seconds",
        type=float,
        help="time box per run (default: run_seconds of BENCHMARK.json at "
        "--scale bench, otherwise 0: the fewest repetitions that verify)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="add (one workload: make it) the traced run that yields the "
        "per-layer metrics",
    )
    parser.add_argument("--scale", choices=SCALES, default="bench")
    parser.add_argument(
        "--smoke", action="store_true", help="same as --scale smoke --trace"
    )
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.trace = "smoke", 1
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"] if args.scale == "bench" else 0
    if args.regen_golden:
        return regen_golden()
    if args.repeat_check:
        return repeat_check(args)
    if args.workload is None:
        return run_all(args)
    return measure(args)
