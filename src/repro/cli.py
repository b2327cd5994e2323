"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one simulation with the platform/fault/workload knobs exposed
  as flags; prints the result summary and error-recovery counters.
* ``figure {5,6,7,8,9,10,13}`` — regenerate a paper figure; prints the
  series table and an ASCII chart of the shape.
* ``table1`` — the AC-unit area/power table.
* ``sweep`` — latency vs injection rate (saturation curves) for a routing
  algorithm, the standard NoC characterization the paper's Figures 8/9
  build on.
* ``degrade`` — the graceful-degradation campaign: progressively kill
  random links (the last one mid-run) under fault-aware table routing and
  report the delivery-rate / latency-inflation / reconvergence curve.
* ``campaign`` — the durable campaign service: run a JSON spec of config
  variants under full supervision (journal, retry backoff, per-attempt
  timeouts, whole-campaign deadline, content-addressed result cache) and
  resume a crashed campaign with ``--resume`` (docs/CAMPAIGNS.md).
* ``lint`` — the static NoC linter: check JSON config files (or a config
  assembled from the same flags ``run`` takes) against the ``NOC0xx`` rule
  catalogue and the channel-dependency-graph deadlock-freedom verifier.
  Exits non-zero when any ERROR diagnostic fires.
* ``verify`` — the routing certification engine: statically prove
  connectivity, livelock-freedom and deadlock-freedom for a config (with
  its permanent-fault schedule fully applied), optionally under exhaustive
  single-link-kill and seeded multi-kill robustness sweeps.  Exits non-zero
  when any certificate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.config import (
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
    parse_link_latency,
    parse_shape,
)
from repro.report.charts import render_comparison_table, render_series
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    """Mesh-geometry knobs shared by every platform-building subcommand."""
    parser.add_argument(
        "--shape",
        metavar="WxH[xD]",
        default="8x8",
        help="mesh extents, e.g. 8x8 or 4x4x4 (a third axis selects the "
        "3D topology with vertical TSV links)",
    )
    parser.add_argument(
        "--link-latency",
        metavar="L[,L,L]",
        default="1",
        help="cycles per link traversal, uniform (e.g. 1) or per axis "
        "(e.g. 1,1,2 for 2-cycle vertical TSVs)",
    )


def _parse_shape_args(args: argparse.Namespace) -> "tuple[List[int], Any]":
    """Resolve ``--shape``/``--link-latency`` into their serialized forms
    (a list; an int or a per-axis list), exiting 2 on bad grammar."""
    try:
        shape = parse_shape(args.shape)
        latency = parse_link_latency(args.link_latency)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return list(shape), latency if isinstance(latency, int) else list(latency)


def _add_platform_flags(parser: argparse.ArgumentParser) -> None:
    """The NoC-platform and fault knobs shared by ``run`` and ``lint``."""
    _add_shape_flags(parser)
    parser.add_argument("--vcs", type=int, default=3, help="virtual channels per port")
    parser.add_argument("--buffer-depth", type=int, default=4)
    parser.add_argument("--flits", type=int, default=4, help="flits per packet")
    parser.add_argument(
        "--retx-depth",
        type=int,
        default=3,
        help="retransmission buffer depth (Section 3.1 derives 3)",
    )
    parser.add_argument(
        "--routing",
        choices=[a.value for a in RoutingAlgorithm if a is not RoutingAlgorithm.SOURCE],
        default="xy",
    )
    parser.add_argument(
        "--scheme", choices=[s.value for s in LinkProtection], default="hbh"
    )
    parser.add_argument("--pipeline-stages", type=int, default=3, choices=(1, 2, 3, 4))
    parser.add_argument("--no-ac", action="store_true", help="disable the AC unit")
    parser.add_argument(
        "--deadlock-recovery", action="store_true", help="enable probing + recovery"
    )
    parser.add_argument(
        "--deadlock-threshold",
        type=int,
        default=32,
        help="C_thres: blocked cycles before a probe fires",
    )
    parser.add_argument(
        "--torus", action="store_true", help="torus topology instead of mesh"
    )
    parser.add_argument("--link-error-rate", type=float, default=0.0)
    parser.add_argument(
        "--multi-bit-fraction",
        type=float,
        default=0.1,
        help="fraction of link errors that defeat SEC",
    )
    parser.add_argument("--rt-error-rate", type=float, default=0.0)
    parser.add_argument("--va-error-rate", type=float, default=0.0)
    parser.add_argument("--sa-error-rate", type=float, default=0.0)
    parser.add_argument(
        "--dead-link",
        action="append",
        default=[],
        metavar="NODE:DIR[@CYCLE]",
        help="permanently kill a link (repeatable), e.g. 12:east@500",
    )
    parser.add_argument(
        "--dead-router",
        action="append",
        default=[],
        metavar="NODE[@CYCLE]",
        help="permanently kill a router and all its links (repeatable)",
    )
    parser.add_argument(
        "--dead-vc",
        action="append",
        default=[],
        metavar="NODE:DIR:VC[@CYCLE]",
        help="permanently kill one input VC buffer (repeatable)",
    )
    parser.add_argument(
        "--intermittent-link",
        action="append",
        default=[],
        metavar="NODE:DIR:RATE:ON:OFF[@CYCLE]",
        help="add a bursty link site (repeatable): strike probability RATE "
        "during exponentially distributed on-windows of mean ON cycles, "
        "separated by off-windows of mean OFF, e.g. 12:east:0.4:30:200",
    )
    parser.add_argument(
        "--wear-out-threshold",
        type=float,
        metavar="STRESS",
        help="escalate an intermittent site into a permanent link death "
        "once its accumulated stress reaches this value (docs/FAULTS.md)",
    )
    parser.add_argument(
        "--wear-out-strike-weight",
        type=float,
        default=1.0,
        help="stress contributed per intermittent strike (default 1.0)",
    )
    parser.add_argument(
        "--wear-out-traversal-weight",
        type=float,
        default=0.0,
        help="stress contributed per flit traversal of the site's link "
        "(default 0.0: strikes only)",
    )


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rate", type=float, default=0.25, help="flits/node/cycle")
    parser.add_argument(
        "--pattern", default="uniform", help="uniform|bit_complement|tornado|transpose"
    )
    parser.add_argument("--messages", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=400)
    parser.add_argument("--max-cycles", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)


def _permanent_dicts(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Parse the ``--dead-*`` specs into serialized permanent faults."""
    from repro.faults.permanent import (
        PermanentFaultSchedule,
        parse_link_spec,
        parse_router_spec,
        parse_vc_spec,
    )

    faults = []
    try:
        for spec in args.dead_link:
            faults.append(parse_link_spec(spec))
        for spec in args.dead_router:
            faults.append(parse_router_spec(spec))
        for spec in args.dead_vc:
            faults.append(parse_vc_spec(spec))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return PermanentFaultSchedule.of(*faults).to_dicts()


def _intermittent_dicts(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Parse the ``--intermittent-link`` specs into serialized burst sites."""
    from repro.faults.intermittent import (
        IntermittentFaultSchedule,
        parse_intermittent_spec,
    )

    faults = []
    try:
        for spec in args.intermittent_link:
            faults.append(parse_intermittent_spec(spec))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return IntermittentFaultSchedule.of(*faults).to_dicts()


def _wear_out_dict(args: argparse.Namespace) -> Optional[Dict[str, float]]:
    if args.wear_out_threshold is None:
        return None
    return {
        "threshold": args.wear_out_threshold,
        "strike_weight": args.wear_out_strike_weight,
        "traversal_weight": args.wear_out_traversal_weight,
    }


def _platform_dict(args: argparse.Namespace) -> Dict[str, Any]:
    """The serialized config dict the flags describe (no constructors run,
    so ``lint`` can diagnose values the constructors would reject)."""
    rates: Dict[str, float] = {}
    for site, value in (
        (FaultSite.LINK, args.link_error_rate),
        (FaultSite.ROUTING, args.rt_error_rate),
        (FaultSite.VC_ALLOC, args.va_error_rate),
        (FaultSite.SW_ALLOC, args.sa_error_rate),
    ):
        if value:
            rates[site.value] = value
    shape, link_latency = _parse_shape_args(args)
    out: Dict[str, Any] = {
        "noc": {
            "shape": shape,
            "link_latency": link_latency,
            "topology": "torus" if args.torus else "mesh",
            "num_vcs": args.vcs,
            "vc_buffer_depth": args.buffer_depth,
            "flits_per_packet": args.flits,
            "retx_buffer_depth": args.retx_depth,
            "pipeline_stages": args.pipeline_stages,
            "routing": args.routing,
            "link_protection": args.scheme,
            "ac_unit_enabled": not args.no_ac,
            "deadlock_recovery_enabled": args.deadlock_recovery,
            "deadlock_threshold": args.deadlock_threshold,
        },
        "faults": {
            "rates": rates,
            "link_multi_bit_fraction": args.multi_bit_fraction,
            "seed": args.seed,
            "permanent": _permanent_dicts(args),
            "intermittent": _intermittent_dicts(args),
            "wear_out": _wear_out_dict(args),
        },
        "workload": {
            "pattern": args.pattern,
            "injection_rate": args.rate,
            "num_messages": args.messages,
            "warmup_messages": args.warmup,
            "max_cycles": args.max_cycles,
            "seed": args.seed,
        },
        "invariant_checks": getattr(args, "invariant_checks", False),
    }
    backend = getattr(args, "backend", None)
    if backend is not None:
        out["backend"] = backend
    if getattr(args, "checkpoint", None):
        out["checkpoint_path"] = args.checkpoint
        out["checkpoint_interval"] = getattr(args, "checkpoint_interval", None)
    if getattr(args, "telemetry", None):
        out["telemetry"] = {
            "enabled": True,
            "metrics_interval": getattr(args, "metrics_interval", 100),
        }
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant NoC simulator (Park et al., DSN 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    _add_platform_flags(run)
    _add_workload_flags(run)
    run.add_argument(
        "--invariant-checks",
        action="store_true",
        help="run the per-cycle invariant sanitizer (slow; raises on violation)",
    )
    run.add_argument(
        "--backend",
        choices=("object", "batched"),
        default="object",
        help="execution backend: 'batched' runs fault-free configs on the "
        "struct-of-arrays kernel (docs/KERNEL.md), bit-for-bit equivalent "
        "and ~5x faster when loaded; out-of-domain configs fall back to "
        "the object model",
    )
    run.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    run.add_argument(
        "--telemetry",
        metavar="PATH",
        help="enable the telemetry layer and write its NDJSON stream here",
    )
    run.add_argument(
        "--metrics-interval",
        type=int,
        default=100,
        help="cycles between telemetry time-series samples (with --telemetry)",
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
    lint.add_argument(
        "paths",
        nargs="*",
        help="JSON config files or directories (default: lint the flags)",
    )
    _add_platform_flags(lint)
    _add_workload_flags(lint)
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
    lint.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )

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
    verify.add_argument(
        "paths",
        nargs="*",
        help="JSON config files or directories (default: verify the flags)",
    )
    _add_platform_flags(verify)
    _add_workload_flags(verify)
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
    verify.add_argument(
        "--json", action="store_true", help="emit certificates as JSON"
    )

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", choices=["5", "6", "7", "8", "9", "10", "13"])
    fig.add_argument("--messages", type=int, default=1200)
    fig.add_argument("--no-chart", action="store_true")

    sub.add_parser("table1", help="the AC-unit overhead table")

    degrade = sub.add_parser(
        "degrade",
        help="graceful-degradation campaign: progressive random link kills",
        description=(
            "Kill 0..N randomly chosen links (the last one mid-run) on a "
            "mesh running fault-aware table routing and report delivery "
            "rate, reachable-pair fraction, latency inflation and "
            "reconvergence time per kill level."
        ),
    )
    _add_shape_flags(degrade)
    degrade.add_argument(
        "--kills", type=int, default=8, help="maximum number of dead links"
    )
    degrade.add_argument(
        "--kill-pillars",
        action="store_true",
        help="kill whole TSV pillars (every vertical link of an (x,y) "
        "column) instead of single links; needs a 3-axis --shape",
    )
    degrade.add_argument("--rate", type=float, default=0.1, help="flits/node/cycle")
    degrade.add_argument(
        "--inject-cycles", type=int, default=1500, help="injection window length"
    )
    degrade.add_argument("--seed", type=int, default=17)
    degrade.add_argument(
        "--routing",
        choices=["ft_table", "xy", "west_first", "fully_adaptive"],
        default="ft_table",
        help="routing algorithm under test (default: fault-aware ft_table)",
    )
    degrade.add_argument(
        "--burst",
        action="store_true",
        help="sweep intermittent burst intensity x wear-out rate instead "
        "of progressive clean kills (docs/FAULTS.md)",
    )
    degrade.add_argument(
        "--burst-rates",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3, 0.6],
        help="on-window strike probabilities to sweep (with --burst)",
    )
    degrade.add_argument(
        "--wear-thresholds",
        type=float,
        nargs="+",
        default=[200.0, 50.0],
        help="strike-count escalation thresholds to sweep (with --burst); "
        "an intermittent-only row with no escalation is always included",
    )
    degrade.add_argument(
        "--burst-sites",
        type=int,
        default=6,
        help="number of seeded links the burst sweep stresses (with --burst)",
    )
    degrade.add_argument(
        "--invariant-checks",
        action="store_true",
        help="run the per-cycle invariant sanitizer during the campaign",
    )
    degrade.add_argument(
        "--json", action="store_true", help="emit the curve as JSON"
    )
    degrade.add_argument("--no-chart", action="store_true")

    campaign = sub.add_parser(
        "campaign",
        help="run (or resume) a durable, cache-aware campaign of variants",
        description=(
            "Run a campaign spec — a JSON object with either "
            "{'base': CONFIG, 'axes': {'dotted.path': [values, ...]}} "
            "(cartesian grid) or {'variants': [{'name': ..., 'config': "
            "CONFIG}, ...]} — under the supervised campaign service: "
            "watchdogged worker processes, exponential-backoff retries, an "
            "optional whole-campaign deadline, a durable journal and a "
            "content-addressed result cache (docs/CAMPAIGNS.md).  With "
            "--dir the campaign survives a supervisor crash: "
            "'repro campaign --resume DIR' re-enqueues only unfinished "
            "variants.  Exit status 1 if any variant failed."
        ),
    )
    campaign.add_argument(
        "spec",
        nargs="?",
        help="campaign spec JSON file (omit with --resume)",
    )
    campaign.add_argument(
        "--dir",
        metavar="DIR",
        help="campaign state directory: journal.jsonl, checkpoints/ and "
        "cache/ live here; makes the campaign resumable",
    )
    campaign.add_argument(
        "--resume",
        metavar="DIR",
        help="resume a crashed campaign from DIR/journal.jsonl (settings "
        "default to the values recorded in the journal header; flags "
        "override them)",
    )
    campaign.add_argument(
        "--processes", type=int, help="worker processes (default 1)"
    )
    campaign.add_argument(
        "--retries",
        type=int,
        help="extra attempts per failing variant (default 0)",
    )
    campaign.add_argument(
        "--timeout",
        type=float,
        help="per-attempt wall-clock bound in seconds (SIGKILL + "
        "error='timeout' beyond it)",
    )
    campaign.add_argument(
        "--deadline",
        type=float,
        help="whole-campaign wall-clock bound in seconds; unfinished "
        "variants get partial rows with error='campaign_deadline'",
    )
    campaign.add_argument(
        "--grace",
        type=float,
        help="seconds in-flight workers get to finish after the deadline "
        "before being SIGKILLed (default 2)",
    )
    campaign.add_argument(
        "--checkpoint-interval",
        type=int,
        metavar="N",
        help="cycles between worker checkpoints (default 500; retries "
        "resume from the last good checkpoint)",
    )
    campaign.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed result cache (default: DIR/cache under "
        "--dir)",
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache for this run",
    )
    campaign.add_argument(
        "--cache-verify",
        action="store_true",
        help="re-run cached variants and byte-compare against the stored "
        "envelope (mismatches are reported and the cache refreshed)",
    )
    campaign.add_argument(
        "--backoff-base",
        type=float,
        help="first retry delay in seconds (0 disables backoff; default "
        "0.05, doubling per attempt)",
    )
    campaign.add_argument(
        "--backoff-max",
        type=float,
        help="retry delay ceiling in seconds (default 2)",
    )
    campaign.add_argument(
        "--backoff-seed",
        type=int,
        help="seed for the deterministic retry jitter (default 0)",
    )
    campaign.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the pre-run lint pass over every variant",
    )
    campaign.add_argument(
        "--json",
        action="store_true",
        help="emit rows and service stats as JSON",
    )

    sweep = sub.add_parser("sweep", help="latency vs injection rate")
    _add_shape_flags(sweep)
    sweep.add_argument(
        "--routing",
        choices=["xy", "west_first", "fully_adaptive"],
        default="xy",
    )
    sweep.add_argument("--messages", type=int, default=600)
    sweep.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45],
    )
    sweep.add_argument(
        "--json", action="store_true", help="emit every point's result as JSON"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import InvariantViolationError
    from repro.serialization import config_from_dict

    if (args.checkpoint_interval is None) != (args.checkpoint is None):
        print(
            "error: --checkpoint and --checkpoint-interval must be used "
            "together",
            file=sys.stderr,
        )
        return 2
    if args.resume:
        from repro.checkpoint import CheckpointError, load_checkpoint

        try:
            sim = load_checkpoint(args.resume)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        config = sim.config
        print(
            f"resuming from {args.resume} at cycle {sim.resumed_from_cycle}",
            file=sys.stderr,
        )
    else:
        from repro.noc.simulator import Simulator

        try:
            config = config_from_dict(_platform_dict(args))
            # Network construction cross-checks fault specs against the
            # topology (e.g. 0:up on a 2D mesh) — also a usage error.
            sim = Simulator(config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        result = sim.run()
    except InvariantViolationError as exc:
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
                print(f"  {json.dumps(event, sort_keys=True)}", file=sys.stderr)
        return 1
    export_summary = None
    if args.telemetry and result.telemetry is not None:
        from repro.serialization import config_to_dict
        from repro.telemetry import write_ndjson

        export_summary = write_ndjson(
            result.telemetry, args.telemetry, config=config_to_dict(config)
        )
    if args.json:
        from repro.serialization import config_to_dict, envelope, result_to_dict

        print(
            json.dumps(
                envelope(
                    "run",
                    result_to_dict(result, include_config=False),
                    config=config_to_dict(config),
                ),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(result.summary_lines())
    interesting = {
        name: count
        for name, count in sorted(result.counters.items())
        if count and not name.startswith("e_")
    }
    if interesting:
        print("\ncounters:")
        for name, count in interesting.items():
            print(f"  {name:<28} {count}")
    if export_summary is not None:
        print(
            f"\ntelemetry: {export_summary['events']} events, "
            f"{export_summary['samples']} samples in "
            f"{export_summary['series']} series -> {args.telemetry}"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_dict, lint_paths
    from repro.analysis.rules import rule_catalogue

    if args.rules:
        print(rule_catalogue())
        return 0
    cdg = not args.no_cdg
    if args.paths:
        report = lint_paths(args.paths, cdg=cdg)
    else:
        report = lint_dict(_platform_dict(args), cdg=cdg, source="<flags>")
    if args.json:
        from repro.serialization import envelope

        config_dict = None if args.paths else _platform_dict(args)
        print(
            json.dumps(
                envelope("lint", report.to_dicts(), config=config_dict),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(report.format_text())
    if args.strict and report.warnings:
        return 1
    return report.exit_code


def _verify_entry_certified(entry: Dict[str, Any]) -> bool:
    """Whether every check in one ``certify_config`` entry passed."""
    if not entry["routing"]["certified"]:
        return False
    single = entry.get("single_link_kills")
    if single is not None and not single["certified"]:
        return False
    return all(s["certified"] for s in entry.get("multi_link_kills", []))


def _print_verify_entry(entry: Dict[str, Any]) -> None:
    platform = entry["platform"]
    routing = entry["routing"]
    faults = len(platform["permanent_faults"])
    degraded = f", {faults} permanent faults applied" if faults else ""
    dims = "x".join(str(d) for d in platform["shape"])
    print(
        f"{entry.get('name', '<config>')}: {dims} "
        f"{platform['topology']}, "
        f"{platform['routing']} routing, {platform['num_vcs']} VCs{degraded}"
    )

    def line(label: str, ok: bool, detail: str) -> None:
        print(f"  {label:<18} {'PASS' if ok else 'FAIL'}  {detail}")

    extra = (
        f" +{routing['extra_pairs']} best-effort" if routing["extra_pairs"] else ""
    )
    line(
        "connectivity",
        routing["connected"],
        f"{routing['delivered_pairs']}/{routing['expected_pairs']} expected "
        f"pairs{extra} (max route {routing['max_route_length']} hops)",
    )
    line(
        "livelock-freedom",
        routing["livelock_free"],
        f"progress metric: {routing['progress_metric']}",
    )
    line(
        "deadlock-freedom",
        routing["deadlock_free"],
        f"{routing['num_channels']} channels, "
        f"{routing['num_dependencies']} dependencies",
    )
    if not routing["connected"]:
        for pair in routing["missing_pairs"]:
            print(f"    unroutable: {pair}")
        for state in routing["stuck_states"]:
            print(f"    stuck: {state}")
    if not routing["livelock_free"]:
        for step in routing["livelock_witness"]:
            print(f"    livelock witness: {step}")
    if not routing["deadlock_free"]:
        for step in routing["witness"]:
            print(f"    deadlock witness: {step}")
    single = entry.get("single_link_kills")
    if single is not None:
        line(
            "single-link kills",
            single["certified"],
            f"{single['trials']} exhaustive trials, min delivered fraction "
            f"{single['min_delivered_fraction']:.3f}",
        )
        for failure in single["failures"]:
            print(f"    {failure}")
    for sweep in entry.get("multi_link_kills", []):
        line(
            f"{sweep['kills_per_trial']}-link kills",
            sweep["certified"],
            f"{sweep['trials']} sampled trials (seed {sweep['seed']}), min "
            f"delivered fraction {sweep['min_delivered_fraction']:.3f}",
        )
        for failure in sweep["failures"]:
            print(f"    {failure}")


def _cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.verify import certify_config
    from repro.serialization import config_from_dict

    targets: List[Any] = []
    if args.paths:
        files: List[Path] = []
        for raw in args.paths:
            path = Path(raw)
            files.extend(sorted(path.rglob("*.json")) if path.is_dir() else [path])
        for file in files:
            try:
                targets.append((str(file), json.loads(file.read_text())))
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: {file}: {exc}", file=sys.stderr)
                return 2
        if not targets:
            print("error: no *.json config files found", file=sys.stderr)
            return 2
    else:
        targets.append(("<flags>", _platform_dict(args)))

    entries: List[Dict[str, Any]] = []
    for name, data in targets:
        try:
            config = config_from_dict(data)
            entries.append(
                certify_config(
                    config,
                    single_link_kills=args.single_link_kills,
                    multi_kills=tuple(args.multi_kill),
                    samples=args.samples,
                    seed=args.sweep_seed,
                    name=name,
                )
            )
        except (TypeError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    certified = all(_verify_entry_certified(e) for e in entries)
    if args.json:
        from repro.serialization import envelope

        config_dict = None if args.paths else _platform_dict(args)
        print(
            json.dumps(
                envelope("verify", entries, config=config_dict),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for i, entry in enumerate(entries):
            if i:
                print()
            _print_verify_entry(entry)
        passing = sum(_verify_entry_certified(e) for e in entries)
        if certified:
            print(f"\n{len(entries)} config(s): CERTIFIED")
        else:
            print(
                f"\n{passing} of {len(entries)} config(s) certified: "
                "NOT CERTIFIED"
            )
    return 0 if certified else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    number = args.number
    warmup = args.messages // 5
    chart = not args.no_chart
    if number == "5":
        from repro.experiments.figure5 import run_figure5

        results = run_figure5(num_messages=args.messages, warmup=warmup)
        xs = [p.error_rate for p in results["hbh"]]
        series = {k.upper(): [p.avg_latency for p in v] for k, v in results.items()}
        _emit("Figure 5 — latency (cycles) vs error rate", xs, series, chart, log_x=True)
    elif number in ("6", "7"):
        from repro.experiments.figure6_7 import run_figure6_7

        results = run_figure6_7(num_messages=args.messages, warmup=warmup)
        xs = [p.error_rate for p in results["NR"]]
        if number == "6":
            series = {k: [p.avg_latency for p in v] for k, v in results.items()}
            _emit("Figure 6 — HBH latency (cycles)", xs, series, chart, log_x=True)
        else:
            series = {
                k: [p.energy_per_packet_nj for p in v] for k, v in results.items()
            }
            _emit("Figure 7 — HBH energy/message (nJ)", xs, series, chart, log_x=True)
    elif number in ("8", "9"):
        from repro.experiments.figure8_9 import run_figure8_9

        results = run_figure8_9()
        xs = [p.injection_rate for p in results["AD"]]
        if number == "8":
            series = {k: [p.tx_utilization for p in v] for k, v in results.items()}
            _emit("Figure 8 — transmission buffer utilization", xs, series, chart)
        else:
            series = {k: [p.retx_utilization for p in v] for k, v in results.items()}
            _emit("Figure 9 — retransmission buffer utilization", xs, series, chart)
    elif number == "10":
        from repro.experiments.deadlock_demo import main as deadlock_main

        deadlock_main()
    elif number == "13":
        from repro.experiments.figure13 import run_figure13

        results = run_figure13(num_messages=args.messages, warmup=warmup)
        xs = [p.error_rate for p in results["LINK-HBH"]]
        series = {
            k: [p.corrected_per_kmsg for p in v] for k, v in results.items()
        }
        _emit(
            "Figure 13(a) — corrected errors per 1,000 messages",
            xs,
            series,
            chart,
            log_x=True,
        )
        energy = {
            k: [p.energy_per_packet_nj for p in v] for k, v in results.items()
        }
        _emit("Figure 13(b) — energy per packet (nJ)", xs, energy, chart, log_x=True)
    return 0


def _emit(title, xs, series, chart, log_x=False) -> None:
    rows = [
        [x] + [series[name][i] for name in series] for i, x in enumerate(xs)
    ]
    print(render_comparison_table(["x"] + list(series), rows, title))
    if chart:
        print()
        print(render_series(title, xs, series, log_x=log_x))
    print()


def _cmd_table1() -> int:
    from repro.experiments.table1 import main as table1_main

    table1_main()
    return 0


def _cmd_degrade(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from repro.experiments.degradation import run_degradation

    if args.burst:
        return _cmd_degrade_burst(args)
    shape, link_latency = _parse_shape_args(args)
    if args.kill_pillars and len(shape) != 3:
        print(
            "error: --kill-pillars needs a 3-axis --shape (e.g. 4x4x4)",
            file=sys.stderr,
        )
        return 2
    try:
        points = run_degradation(
            shape=shape,
            link_latency=link_latency,
            max_kills=args.kills,
            injection_rate=args.rate,
            inject_cycles=args.inject_cycles,
            seed=args.seed,
            invariant_checks=args.invariant_checks,
            routing=RoutingAlgorithm(args.routing),
            kill_pillars=args.kill_pillars,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        from repro.serialization import envelope

        campaign = {
            "shape": shape,
            "link_latency": link_latency,
            "kill_pillars": args.kill_pillars,
            "max_kills": args.kills,
            "injection_rate": args.rate,
            "inject_cycles": args.inject_cycles,
            "seed": args.seed,
            "routing": args.routing,
        }
        print(
            json.dumps(
                envelope(
                    "degrade", [_dc.asdict(p) for p in points], config=campaign
                ),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = [
        [
            p.kills,
            f"{p.delivery_rate:.4f}",
            f"{p.reachable_fraction:.4f}",
            f"{p.avg_latency:.2f}",
            f"{p.latency_inflation:.3f}",
            p.reconvergence_cycles,
            p.packets_lost,
        ]
        for p in points
    ]
    dims = "x".join(str(d) for d in shape)
    unit = "dead pillars" if args.kill_pillars else "dead links"
    print(
        render_comparison_table(
            [
                unit,
                "delivery",
                "reachable",
                "latency",
                "inflation",
                "reconv (cyc)",
                "lost",
            ],
            rows,
            f"Graceful degradation — {dims} mesh, "
            f"{args.routing} routing (seed {args.seed})",
        )
    )
    if not args.no_chart:
        xs = [float(p.kills) for p in points]
        print()
        print(
            render_series(
                "delivery rate & latency inflation vs dead links",
                xs,
                {
                    "delivery": [p.delivery_rate for p in points],
                    "inflation": [p.latency_inflation for p in points],
                },
            )
        )
    return 0


def _cmd_degrade_burst(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from repro.experiments.degradation import run_burst_degradation

    wear_thresholds: List[Optional[float]] = [None]
    wear_thresholds.extend(args.wear_thresholds)
    shape, _ = _parse_shape_args(args)
    points = run_burst_degradation(
        shape=shape,
        burst_rates=args.burst_rates,
        wear_thresholds=wear_thresholds,
        num_sites=args.burst_sites,
        injection_rate=args.rate,
        inject_cycles=args.inject_cycles,
        seed=args.seed,
        invariant_checks=args.invariant_checks,
        routing=RoutingAlgorithm(args.routing),
    )
    if args.json:
        from repro.serialization import envelope

        campaign = {
            "shape": shape,
            "burst_rates": list(args.burst_rates),
            "wear_thresholds": wear_thresholds,
            "burst_sites": args.burst_sites,
            "injection_rate": args.rate,
            "inject_cycles": args.inject_cycles,
            "seed": args.seed,
            "routing": args.routing,
        }
        print(
            json.dumps(
                envelope(
                    "degrade_burst",
                    [_dc.asdict(p) for p in points],
                    config=campaign,
                ),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    dims = "x".join(str(d) for d in shape)
    rows = [
        [
            f"{p.burst_rate:.2f}",
            "-" if p.wear_threshold is None else f"{p.wear_threshold:g}",
            f"{p.delivery_rate:.4f}",
            f"{p.latency_inflation:.3f}",
            p.intermittent_strikes,
            p.escalations,
            p.packets_lost,
        ]
        for p in points
    ]
    print(
        render_comparison_table(
            [
                "burst rate",
                "wear thresh",
                "delivery",
                "inflation",
                "strikes",
                "escalated",
                "lost",
            ],
            rows,
            f"Burst/wear-out degradation — {dims} mesh, "
            f"{args.burst_sites} stressed links (seed {args.seed})",
        )
    )
    return 0


def _deep_merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    """Recursively overlay ``override`` onto ``base`` (dicts merge,
    everything else replaces)."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _campaign_variants(data: Dict[str, Any]) -> List[Any]:
    """Materialize a campaign spec's variant list (grid or explicit).

    Spec configs are partial: they overlay the default
    :class:`SimulationConfig`, so a spec only states what it varies.
    """
    from repro.campaign import grid
    from repro.serialization import (
        config_from_dict,
        config_to_dict,
        upgrade_config_dict,
    )

    defaults = config_to_dict(SimulationConfig())

    def overlay(fragment: Dict[str, Any]) -> SimulationConfig:
        # Upgraded before the merge: a legacy-spelled fragment laid over
        # the canonical defaults would otherwise read as both spellings.
        return config_from_dict(
            _deep_merge(defaults, upgrade_config_dict(fragment))
        )

    if "variants" in data:
        return [(v["name"], overlay(v["config"])) for v in data["variants"]]
    if "axes" in data:
        return grid(data["axes"], overlay(data.get("base", {})))
    raise ValueError("campaign spec needs an 'axes' or 'variants' key")


def _cmd_campaign(args: argparse.Namespace) -> int:
    import os

    from repro.campaign import (
        CampaignLintError,
        campaign_row_to_dict,
        campaign_table,
        run_campaign,
    )
    from repro.service import JournalError, RetryPolicy, resume_campaign

    if bool(args.spec) == bool(args.resume):
        print(
            "error: give a campaign spec file or --resume DIR (not both)",
            file=sys.stderr,
        )
        return 2
    knobs = {
        "base": args.backoff_base,
        "maximum": args.backoff_max,
        "seed": args.backoff_seed,
    }
    knobs = {key: value for key, value in knobs.items() if value is not None}
    if "base" in knobs:  # a base above the default ceiling lifts it
        knobs.setdefault("maximum", max(knobs["base"], RetryPolicy().maximum))
    try:
        backoff = RetryPolicy(**knobs) if knobs else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # An unset flag (None) falls back to the journal header on --resume and
    # to the service default otherwise.
    flags = {
        "processes": args.processes,
        "retries": args.retries,
        "timeout": args.timeout,
        "deadline": args.deadline,
        "deadline_grace": args.grace,
        "checkpoint_interval": args.checkpoint_interval,
        "backoff": backoff,
        "cache_verify": args.cache_verify or None,
    }
    try:
        if args.resume:
            if args.cache_dir:
                flags["cache_dir"] = args.cache_dir
            rows, stats = resume_campaign(
                os.path.join(args.resume, "journal.jsonl"),
                no_cache=args.no_cache,
                **flags,
            )
        else:
            try:
                with open(args.spec) as fh:
                    data = json.load(fh)
                variants = _campaign_variants(data)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"error: {args.spec}: {exc}", file=sys.stderr)
                return 2
            journal_path = None
            if args.dir:
                os.makedirs(args.dir, exist_ok=True)
                state_dir = os.path.abspath(args.dir)
                journal_path = os.path.join(state_dir, "journal.jsonl")
                flags["checkpoint_dir"] = os.path.join(state_dir, "checkpoints")
                flags["cache_dir"] = os.path.join(state_dir, "cache")
            if args.cache_dir:
                flags["cache_dir"] = os.path.abspath(args.cache_dir)
            if args.no_cache:
                flags.pop("cache_dir", None)
            rows, stats = run_campaign(
                variants,
                lint=not args.no_lint,
                journal_path=journal_path,
                return_stats=True,
                **flags,
            )
    except CampaignLintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (JournalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for r in rows if r.failed)
    if args.json:
        from repro.serialization import envelope

        print(
            json.dumps(
                envelope(
                    "campaign",
                    {
                        "rows": [campaign_row_to_dict(r) for r in rows],
                        "stats": stats,
                    },
                ),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(campaign_table(rows))
        summary = (
            f"\n{len(rows)} variant(s): {len(rows) - failed} ok, "
            f"{failed} failed"
        )
        if stats:
            summary += (
                f" — {stats.get('attempts', 0)} attempt(s), "
                f"{stats.get('retries', 0)} retried, "
                f"{stats.get('cache_hits', 0)} from cache, "
                f"{stats.get('wall_s', 0.0):.2f}s wall"
            )
        print(summary)
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.noc.simulator import run_simulation

    shape, link_latency = _parse_shape_args(args)
    max_latency = link_latency if isinstance(link_latency, int) else max(link_latency)
    noc = NoCConfig(
        shape=shape,
        link_latency=link_latency,
        retx_buffer_depth=max(3, 2 * max_latency + 1),
        routing=RoutingAlgorithm(args.routing),
    )
    latencies = []
    points: List[Dict[str, Any]] = []
    for rate in args.rates:
        config = SimulationConfig(
            noc=noc,
            workload=WorkloadConfig(
                injection_rate=rate,
                num_messages=args.messages,
                warmup_messages=args.messages // 5,
                max_cycles=60_000,
            ),
        )
        result = run_simulation(config)
        latencies.append(result.avg_latency)
        if args.json:
            points.append(
                {"rate": rate, "result": result.to_dict(include_config=False)}
            )
        else:
            print(f"rate {rate:5.2f}: latency {result.avg_latency:8.2f} cycles")
    if args.json:
        from repro.serialization import envelope

        sweep_config = {
            "routing": args.routing,
            "messages": args.messages,
            "rates": list(args.rates),
            "shape": shape,
            "link_latency": link_latency,
        }
        print(
            json.dumps(
                envelope("sweep", points, config=sweep_config),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print()
    print(
        render_series(
            f"Latency vs injection rate ({args.routing})",
            list(args.rates),
            {"latency": latencies},
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "table1":
            return _cmd_table1()
        if args.command == "degrade":
            return _cmd_degrade(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except BrokenPipeError:
        # Output piped into `head`/`grep` that exited early; suppress the
        # traceback and keep the diagnostic exit code meaningful.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
