"""``repro run`` — one simulation (or the rest of a checkpointed one)."""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro import api
from repro.cli.common import (
    add_json_flag,
    add_platform_flags,
    add_workload_flags,
    config_overrides,
    dumps,
    emit,
    usage_errors,
)


def add_parser(sub: Any) -> None:
    run = sub.add_parser("run", help="run one simulation")
    add_platform_flags(run)
    add_workload_flags(run)
    run.add_argument(
        "--invariant-checks",
        action="store_true",
        help="run the per-cycle invariant sanitizer (slow; raises on violation)",
    )
    run.add_argument(
        "--backend",
        choices=("object", "batched"),
        default=api.SimulationConfig.backend,
        help="execution backend: 'batched' (the default) runs every config "
        "inside the kernel's domain on the struct-of-arrays kernel "
        "(docs/KERNEL.md), bit-for-bit equivalent and faster; the rest, "
        "and every config under 'object', run the object model",
    )
    add_json_flag(run, "the full result")
    run.add_argument(
        "--telemetry",
        metavar="PATH",
        help="enable the telemetry layer and write its NDJSON stream here",
    )
    run.add_argument(
        "--metrics-interval",
        type=int,
        help="cycles between telemetry time-series samples (default 100; "
        "requires --telemetry)",
    )
    run.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="periodically snapshot the run here (crash-safe, atomic; "
        "pair with --checkpoint-interval)",
    )
    run.add_argument(
        "--checkpoint-interval",
        type=int,
        metavar="N",
        help="cycles between checkpoints (requires --checkpoint)",
    )
    run.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a previous run from its checkpoint file instead of "
        "starting fresh (platform/workload flags are ignored: the "
        "checkpoint carries the original config)",
    )


def _overrides(args: argparse.Namespace) -> dict:
    """``run``'s own flags on top of the shared platform/workload ones."""
    overrides = config_overrides(args)
    overrides.update(
        invariant_checks=args.invariant_checks,
        backend=args.backend,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
    )
    if args.metrics_interval is not None:
        overrides["metrics_interval"] = args.metrics_interval
    return overrides


def _announce_resume(path: str) -> None:
    """The stderr notice before a resumed run; a file ``api.resume`` is
    about to reject is left for it to report."""
    try:
        cycle = api.read_checkpoint_header(path)["cycle"]
    except (OSError, api.CheckpointError):
        return
    print(f"resuming from {path} at cycle {cycle}", file=sys.stderr)


def _text(result: api.SimulationResult, telemetry_path: Any) -> str:
    lines = [result.summary_lines()]
    interesting = {
        name: count
        for name, count in sorted(result.counters.items())
        if count and not name.startswith("e_")
    }
    if interesting:
        lines.append("\ncounters:")
        lines += [f"  {name:<28} {count}" for name, count in interesting.items()]
    if telemetry_path and result.telemetry is not None:
        summary = result.telemetry.summary()
        lines.append(
            f"\ntelemetry: {summary['events']} events, "
            f"{summary['samples']} samples in "
            f"{summary['series']} series -> {telemetry_path}"
        )
    return "\n".join(lines)


def handler(args: argparse.Namespace) -> int:
    try:
        with usage_errors():
            if (args.checkpoint_interval is None) != (args.checkpoint is None):
                raise ValueError(
                    "--checkpoint and --checkpoint-interval must be used together"
                )
            if args.metrics_interval is not None and not args.telemetry:
                raise ValueError("--metrics-interval requires --telemetry")
            if args.resume:
                _announce_resume(args.resume)
                result = api.resume(args.resume, telemetry_path=args.telemetry)
            else:
                # Guarded whole: the network cross-checks fault specs
                # against its topology (0:up on a 2D mesh) as it is built.
                result = api.run(telemetry_path=args.telemetry, **_overrides(args))
    except api.InvariantViolationError as exc:
        print("simulation aborted: invariant violation", file=sys.stderr)
        for diag in exc.diagnostics:
            print(diag.format(), file=sys.stderr)
        flight = getattr(exc, "flight_record", None)
        if flight:
            print(
                f"(telemetry flight recorder: last {len(flight)} events)",
                file=sys.stderr,
            )
            for event in flight[-10:]:
                print(f"  {dumps(event)}", file=sys.stderr)
        return 1
    emit(
        args,
        "run",
        api.result_to_dict(result, include_config=False),
        lambda: _text(result, args.telemetry),
        config=api.config_to_dict(result.config),
    )
    return 0
