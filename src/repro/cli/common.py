"""The three decisions every ``repro`` subcommand shares, each made once:

* **flags → config**: the ``add_*_flags`` builders declare the vocabulary
  and :func:`config_overrides` hands it to :func:`repro.api.load_config`'s
  flat override names — the facade's alias table is the only place a flag
  name meets a serialized config key;
* **output**: :func:`emit` — ``--json`` is the ``repro/v1`` envelope,
  anything else the subcommand's text renderer;
* **usage errors**: :func:`usage_errors` — bad input is one ``error:`` line
  on stderr and exit status 2, never a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import api
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm

# -- usage errors -----------------------------------------------------------


class UsageError(Exception):
    """Bad input :func:`usage_errors` has already reported; ``main`` turns
    it into exit status 2."""


#: What input construction raises: constructors and spec parsers, unreadable
#: files, and the typed errors of the two on-disk formats.
_BAD_INPUT = (
    ValueError,
    TypeError,
    KeyError,
    OSError,
    api.CheckpointError,
    api.JournalError,
)


def report_error(message: object) -> None:
    print(f"error: {message}", file=sys.stderr)


@contextlib.contextmanager
def usage_errors(prefix: str = "", *, parsing: bool = False) -> Iterator[None]:
    """The usage-error policy: input the block rejects becomes one
    ``error:`` line on stderr (``prefix`` + the message) and exit status 2.

    Wrap input construction — flag checks, spec parsing, the facade call
    that builds (and, for the one-call drivers, then runs) what the flags
    describe — never rendering; ``InvariantViolationError`` and other
    runtime failures are not :data:`_BAD_INPUT` and stay crashes.
    ``parsing`` marks a flag value's grammar (``--shape 4xx4``): that exits
    on the spot, as argparse's own value errors do, rather than returning
    2 from ``main``."""
    try:
        yield
    except _BAD_INPUT as exc:
        report_error(f"{prefix}{exc}")
        if parsing:
            raise SystemExit(2) from None
        raise UsageError from None


# -- output -----------------------------------------------------------------


def dumps(payload: Any, indent: Optional[int] = None) -> str:
    return json.dumps(payload, indent=indent, sort_keys=True)


def emit(
    args: argparse.Namespace,
    command: str,
    result: Any,
    text: Callable[[], str],
    config: Optional[Dict[str, Any]] = None,
) -> None:
    """The output policy: ``--json`` prints ``result`` in the ``repro/v1``
    envelope, otherwise ``text()``, the subcommand's renderer."""
    if args.json:
        print(dumps(api.envelope(command, result, config=config), indent=2))
    else:
        print(text())


def add_json_flag(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--json", action="store_true", help=f"emit {what} as JSON")


# -- flags ------------------------------------------------------------------


class Untyped(int):
    """An int flag default that can still be told from the same number
    typed on the command line (``isinstance(args.kills, Untyped)``)."""


def add_shape_flags(
    parser: argparse.ArgumentParser, link_latency: Optional[str] = "1"
) -> None:
    """Mesh-geometry knobs of every platform-building subcommand (a None
    ``link_latency`` default shows whether the flag was typed)."""
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
        default=link_latency,
        help="cycles per link traversal, uniform (e.g. 1) or per axis "
        "(e.g. 1,1,2 for 2-cycle vertical TSVs)",
    )


def parse_shape_flags(args: argparse.Namespace) -> Tuple[List[int], Any]:
    """``--shape``/``--link-latency`` in their serialized forms (a list; an
    int or a per-axis list)."""
    with usage_errors(parsing=True):
        shape = api.parse_shape(args.shape)
        latency = api.parse_link_latency(
            1 if args.link_latency is None else args.link_latency
        )
    return list(shape), latency if isinstance(latency, int) else list(latency)


def add_platform_flags(parser: argparse.ArgumentParser) -> None:
    """The NoC-platform and fault knobs shared by ``run``, ``lint`` and
    ``verify``."""
    add_shape_flags(parser)
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


def add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rate", type=float, default=0.25, help="flits/node/cycle")
    parser.add_argument(
        "--pattern", default="uniform", help="uniform|bit_complement|tornado|transpose"
    )
    parser.add_argument("--messages", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=400)
    parser.add_argument("--max-cycles", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    """A config to check: JSON files/directories, or else the one the
    platform and workload flags describe (``lint``, ``verify``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="JSON config files or directories (default: the flags)",
    )
    add_platform_flags(parser)
    add_workload_flags(parser)


#: Platform/workload flags whose dest *is* a ``load_config`` override name.
_OVERRIDE_FLAGS = (
    "vcs buffer_depth flits retx_depth routing scheme pipeline_stages "
    "deadlock_threshold rate pattern messages warmup max_cycles seed"
).split()

#: The transient-rate flags, by the fault site each one sets.
_RATE_FLAGS = {
    FaultSite.LINK: "link_error_rate",
    FaultSite.ROUTING: "rt_error_rate",
    FaultSite.VC_ALLOC: "va_error_rate",
    FaultSite.SW_ALLOC: "sa_error_rate",
}


def config_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """The platform/fault/workload flags as :func:`repro.api.load_config`
    overrides — all of them, typed or not, so the CLI's own defaults
    (``--warmup 400``; ``--seed 42`` seeding faults too) are what runs."""
    shape, link_latency = parse_shape_flags(args)
    wear_out = None
    if args.wear_out_threshold is not None:
        wear_out = {
            "threshold": args.wear_out_threshold,
            "strike_weight": args.wear_out_strike_weight,
            "traversal_weight": args.wear_out_traversal_weight,
        }
    with usage_errors(parsing=True):
        faults = api.faults_from_specs(
            {site.value: getattr(args, flag) for site, flag in _RATE_FLAGS.items()},
            args.multi_bit_fraction,
            dead_links=args.dead_link,
            dead_routers=args.dead_router,
            dead_vcs=args.dead_vc,
            intermittent_links=args.intermittent_link,
            wear_out=wear_out,
        )
    return {
        "shape": shape,
        "link_latency": link_latency,
        "topology": "torus" if args.torus else "mesh",
        "ac_unit_enabled": not args.no_ac,
        "deadlock_recovery_enabled": args.deadlock_recovery,
        "faults": faults,
        **{name: getattr(args, name) for name in _OVERRIDE_FLAGS},
    }
