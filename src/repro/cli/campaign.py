"""``repro campaign`` — run (or resume) a spec of config variants under the
durable campaign service (docs/CAMPAIGNS.md)."""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict

from repro import api
from repro.cli.common import add_json_flag, emit, report_error, usage_errors


def add_parser(sub: Any) -> None:
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
        help="skip the pre-run lint pass over every variant (a resumed "
        "campaign was linted when it started)",
    )
    add_json_flag(campaign, "rows and service stats")


def _settings(args: argparse.Namespace) -> Dict[str, Any]:
    """The supervision flags as ``CampaignSettings`` keywords.  An unset
    flag stays None: the service default on a fresh run, the journal
    header's recorded value on ``--resume``."""
    knobs = {
        "base": args.backoff_base,
        "maximum": args.backoff_max,
        "seed": args.backoff_seed,
    }
    knobs = {key: value for key, value in knobs.items() if value is not None}
    if "base" in knobs:  # a base above the default ceiling lifts it
        knobs.setdefault("maximum", max(knobs["base"], api.RetryPolicy().maximum))
    return {
        "processes": args.processes,
        "retries": args.retries,
        "timeout": args.timeout,
        "deadline": args.deadline,
        "deadline_grace": args.grace,
        "checkpoint_interval": args.checkpoint_interval,
        "backoff": api.RetryPolicy(**knobs) if knobs else None,
        "cache_verify": args.cache_verify or None,
    }


def _run(args: argparse.Namespace, settings: Dict[str, Any]) -> Any:
    with usage_errors(f"{args.spec}: "):
        with open(args.spec) as fh:
            variants = api.variants_from_spec(json.load(fh))
    journal_path = None
    if args.dir:
        os.makedirs(args.dir, exist_ok=True)
        state_dir = os.path.abspath(args.dir)
        journal_path = os.path.join(state_dir, "journal.jsonl")
        settings["checkpoint_dir"] = os.path.join(state_dir, "checkpoints")
        settings["cache_dir"] = os.path.join(state_dir, "cache")
    if args.cache_dir:
        settings["cache_dir"] = os.path.abspath(args.cache_dir)
    if args.no_cache:
        settings.pop("cache_dir", None)
    return api.campaign(
        variants,
        lint=not args.no_lint,
        journal_path=journal_path,
        return_stats=True,
        **settings,
    )


def _resume(args: argparse.Namespace, settings: Dict[str, Any]) -> Any:
    for flag, typed in (("--no-lint", args.no_lint), ("--dir", args.dir)):
        if typed:
            raise ValueError(
                f"{flag} does not apply to --resume (the campaign was "
                "linted, and its directory fixed, when it started)"
            )
    if args.cache_dir:
        settings["cache_dir"] = args.cache_dir
    return api.resume_campaign(
        os.path.join(args.resume, "journal.jsonl"),
        no_cache=args.no_cache,
        **settings,
    )


def _text(rows: Any, stats: Dict[str, Any]) -> str:
    failed = sum(1 for r in rows if r.failed)
    summary = (
        f"\n{len(rows)} variant(s): {len(rows) - failed} ok, {failed} failed"
    )
    if stats:
        summary += (
            f" — {stats.get('attempts', 0)} attempt(s), "
            f"{stats.get('retries', 0)} retried, "
            f"{stats.get('cache_hits', 0)} from cache, "
            f"{stats.get('wall_s', 0.0):.2f}s wall"
        )
    return f"{api.campaign_table(rows)}\n{summary}"


def handler(args: argparse.Namespace) -> int:
    with usage_errors():
        if bool(args.spec) == bool(args.resume):
            raise ValueError(
                "give a campaign spec file or --resume DIR (not both)"
            )
        try:
            rows, stats = (_resume if args.resume else _run)(args, _settings(args))
        except api.CampaignLintError as exc:
            report_error(exc)
            return 1
    emit(
        args,
        "campaign",
        {"rows": [api.campaign_row_to_dict(r) for r in rows], "stats": stats},
        lambda: _text(rows, stats),
    )
    return 1 if any(r.failed for r in rows) else 0
