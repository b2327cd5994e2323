"""The config lint rule catalogue (rules ``NOC001``..``NOC016``).

Each rule is a small function from a :class:`LintContext` to zero or more
:class:`~repro.analysis.diagnostics.Diagnostic` records.  Rules are
registered with the :func:`rule` decorator, which pins the stable id and the
one-line title shown by ``repro lint --rules``.

Rules receive both the *raw serialized dict* and (when construction
succeeded) the typed :class:`~repro.config.SimulationConfig`.  Range checks
that the config constructors would reject run against the raw dict, so the
linter can explain a broken config file instead of tracebacking; semantic
rules use the typed object.

Severity policy: ERROR means the simulation is wrong or cannot meet its own
correctness assumptions (Eq. 1 violated, unrecoverable deadlock possible);
WARNING means the run will execute but measure something misleading or
wasteful; INFO is advisory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Mapping, Optional

from repro.analysis.cdg import CDGVerdict
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.verify import both_alive_pairs, topology_of
from repro.config import SimulationConfig
from repro.core.deadlock import max_packets_per_buffer
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm

#: HBH needs the replay window to cover link traversal + error check + NACK
#: propagation (Section 3.1).
MIN_RETX_DEPTH = 3

#: Fault rates beyond this are outside the paper's evaluated range; the
#: network spends more time recovering than transmitting.
FAULT_RATE_SANE_MAX = 0.05

#: Injection beyond this saturates an 8x8 mesh under uniform traffic for
#: every routing algorithm evaluated (Figures 8/9); latency is unbounded.
INJECTION_RATE_SATURATION = 0.45

#: Safety factor on the analytic minimum cycles needed to drain a workload.
MAX_CYCLES_SAFETY_FACTOR = 4


@dataclass
class LintContext:
    """Everything a rule may look at.

    ``config`` is None when the raw dict was rejected by the constructors;
    ``cdg`` is None when the CDG pass was skipped (no config, source
    routing, or disabled by the caller).
    """

    data: Mapping[str, Any]
    config: Optional[SimulationConfig] = None
    cdg: Optional[CDGVerdict] = None

    def noc(self, key: str, default: Any = None) -> Any:
        return self.data.get("noc", {}).get(key, default)

    def workload(self, key: str, default: Any = None) -> Any:
        return self.data.get("workload", {}).get(key, default)

    def fault_rates(self) -> Mapping[str, Any]:
        return self.data.get("faults", {}).get("rates", {})


RuleFn = Callable[[LintContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    rule_id: str
    title: str
    check: RuleFn


_RULES: List[Rule] = []


def rule(rule_id: str, title: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule under a stable id."""

    def register(fn: RuleFn) -> RuleFn:
        _RULES.append(Rule(rule_id, title, fn))
        return fn

    return register


def iter_rules() -> List[Rule]:
    return list(_RULES)


def run_rules(ctx: LintContext) -> List[Diagnostic]:
    """Run the whole catalogue against one context, in id order."""
    diagnostics: List[Diagnostic] = []
    for entry in _RULES:
        diagnostics.extend(entry.check(ctx))
    return diagnostics


def rule_catalogue() -> str:
    """Human-readable rule listing for ``repro lint --rules``."""
    return "\n".join(f"{entry.rule_id}  {entry.title}" for entry in _RULES)


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


@rule("NOC001", "deadlock recovery buffers must satisfy the Eq. 1 bound")
def _noc001_buffer_bound(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None or not cfg.noc.deadlock_recovery_enabled:
        return
    t = cfg.noc.vc_buffer_depth
    r = cfg.noc.retx_buffer_depth
    m = cfg.noc.flits_per_packet
    # With homogeneous buffers Eq. 1 reduces per node: T + R > M * ceil(T/M),
    # so satisfying it for one node satisfies it for every deadlock size.
    per_node_demand = m * max_packets_per_buffer(t, m)
    if t + r > per_node_demand:
        return
    required_r = per_node_demand - t + 1
    yield Diagnostic(
        rule_id="NOC001",
        severity=Severity.ERROR,
        message=(
            f"buffer bound Eq.1 violated: T+R = {t}+{r} = {t + r} does not "
            f"exceed M*ceil(T/M) = {per_node_demand} "
            f"(T={t}, R={r}, M={m}); deadlock recovery cannot guarantee a "
            "free slot and may wedge"
        ),
        hint=(
            f"raise retx_buffer_depth to >= {required_r} (or shrink "
            "vc_buffer_depth so a buffer holds fewer partial packets)"
        ),
    )


@rule("NOC002", "retransmission depth must cover the link round trip")
def _noc002_retx_round_trip(ctx: LintContext) -> Iterable[Diagnostic]:
    depth = ctx.noc("retx_buffer_depth")
    if not isinstance(depth, int):
        return
    # The round trip stretches with the slowest link: traversal (latency
    # cycles) + error check + NACK propagation (latency cycles back).
    required = MIN_RETX_DEPTH
    if ctx.config is not None:
        required = max(required, 2 * ctx.config.noc.max_link_latency + 1)
    if depth >= required:
        return
    yield Diagnostic(
        rule_id="NOC002",
        severity=Severity.ERROR,
        message=(
            f"retransmission depth {depth} < link round trip "
            f"({required} cycles: link traversal + error check + NACK "
            "propagation); a NACK would arrive after its flit left the "
            "replay window"
        ),
        hint=f"set retx_buffer_depth >= {required}",
    )


@rule("NOC003", "C_thres must sit between normal blocking and the cycle budget")
def _noc003_threshold_ordering(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None or not cfg.noc.deadlock_recovery_enabled:
        return
    threshold = cfg.noc.deadlock_threshold
    max_cycles = cfg.workload.max_cycles
    if threshold >= max_cycles:
        yield Diagnostic(
            rule_id="NOC003",
            severity=Severity.ERROR,
            message=(
                f"deadlock_threshold ({threshold}) >= workload.max_cycles "
                f"({max_cycles}): no probe can ever fire before the run is "
                "cut off, so recovery is unreachable"
            ),
            hint="lower deadlock_threshold or raise max_cycles",
        )
        return
    # A wormhole legitimately blocks for about a packet's serialization time
    # behind one contender; probing below that floods the network with
    # false-positive probes (pure energy/latency overhead, Rules 1-4 still
    # reject them, but each probe walk costs link bandwidth).
    ordinary_blocking = cfg.noc.flits_per_packet + cfg.noc.pipeline_stages
    if threshold < ordinary_blocking:
        yield Diagnostic(
            rule_id="NOC003",
            severity=Severity.WARNING,
            message=(
                f"deadlock_threshold ({threshold}) is below ordinary "
                f"contention blocking (~{ordinary_blocking} cycles for "
                f"{cfg.noc.flits_per_packet}-flit packets through a "
                f"{cfg.noc.pipeline_stages}-stage router): expect "
                "false-positive probes on every congested cycle"
            ),
            hint=f"raise deadlock_threshold to >= {ordinary_blocking}",
        )


@rule("NOC004", "cyclic channel dependencies require deadlock recovery")
def _noc004_cdg_cycle(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    verdict = ctx.cdg
    if cfg is None or verdict is None or verdict.deadlock_free:
        return
    if cfg.noc.deadlock_recovery_enabled:
        return
    yield Diagnostic(
        rule_id="NOC004",
        severity=Severity.ERROR,
        message=(
            f"routing '{cfg.noc.routing.value}' on "
            f"{cfg.noc.shape_text} {cfg.noc.topology} has a "
            "cyclic channel-dependency graph and deadlock recovery is "
            "disabled: the cycle below can fill and wedge forever"
        ),
        hint=(
            "enable deadlock_recovery_enabled (the Section 3.2 scheme) or "
            "switch to a deadlock-free routing function (xy, west_first on "
            "mesh)"
        ),
        witness=verdict.witness_text,
    )


@rule("NOC005", "deadlock recovery on an acyclic CDG is dead machinery")
def _noc005_recovery_unneeded(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    verdict = ctx.cdg
    if cfg is None or verdict is None or not verdict.deadlock_free:
        return
    if not cfg.noc.deadlock_recovery_enabled:
        return
    yield Diagnostic(
        rule_id="NOC005",
        severity=Severity.WARNING,
        message=(
            f"deadlock recovery is enabled but routing "
            f"'{cfg.noc.routing.value}' is provably deadlock-free on this "
            f"{cfg.noc.topology} (CDG acyclic: {verdict.num_channels} "
            f"channels, {verdict.num_dependencies} dependencies); probes "
            "can only ever be false positives"
        ),
        hint="disable deadlock_recovery_enabled to save probe energy",
    )


@rule("NOC006", "fault rates must be probabilities in a meaningful range")
def _noc006_fault_rates(ctx: LintContext) -> Iterable[Diagnostic]:
    for site, rate in ctx.fault_rates().items():
        if not isinstance(rate, (int, float)):
            yield Diagnostic(
                rule_id="NOC006",
                severity=Severity.ERROR,
                message=f"fault rate for '{site}' is not a number: {rate!r}",
            )
            continue
        if not 0.0 <= rate <= 1.0:
            yield Diagnostic(
                rule_id="NOC006",
                severity=Severity.ERROR,
                message=(
                    f"fault rate for '{site}' is {rate}, outside [0, 1] "
                    "(rates are per-operation upset probabilities)"
                ),
            )
        elif rate > FAULT_RATE_SANE_MAX:
            yield Diagnostic(
                rule_id="NOC006",
                severity=Severity.WARNING,
                message=(
                    f"fault rate for '{site}' is {rate}, beyond the sane "
                    f"ceiling {FAULT_RATE_SANE_MAX} (the paper evaluates up "
                    "to ~1e-2): the network will measure recovery-storm "
                    "behaviour, not service"
                ),
                hint="lower the rate or treat results as stress-test only",
            )


@rule("NOC007", "a VC buffer should hold a whole packet")
def _noc007_vc_depth(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None:
        return
    t = cfg.noc.vc_buffer_depth
    m = cfg.noc.flits_per_packet
    if t >= m:
        return
    yield Diagnostic(
        rule_id="NOC007",
        severity=Severity.WARNING,
        message=(
            f"vc_buffer_depth ({t}) < flits_per_packet ({m}): every blocked "
            "packet spans multiple routers, lengthening dependency chains "
            "and raising deadlock probability (the paper's platform uses "
            "T = M = 4)"
        ),
        hint=f"raise vc_buffer_depth to >= {m}",
    )


@rule("NOC008", "torus + XY relies on wraparound cycles being recovered")
def _noc008_torus_xy(ctx: LintContext) -> Iterable[Diagnostic]:
    if ctx.noc("topology") not in ("torus", "torus3d"):
        return
    if ctx.noc("routing") != "xy":
        return
    shape = ctx.noc("shape", (8, 8))
    if (
        isinstance(shape, (list, tuple))
        and all(isinstance(d, int) for d in shape)
        and max(shape) < 4
    ):
        # Rings of 3 route every hop directly to a neighbour (shortest-path
        # wraparound), so no same-direction channel chain — hence no wrap
        # cycle — can form; the CDG pass confirms this is deadlock-free.
        return
    recovery = bool(ctx.noc("deadlock_recovery_enabled"))
    yield Diagnostic(
        rule_id="NOC008",
        severity=Severity.WARNING if recovery else Severity.ERROR,
        message=(
            "XY on a torus closes cyclic channel dependencies over the "
            "wraparound links (no dateline VC classes are modelled); "
            + (
                "deadlock recovery will break the cycles but adds latency "
                "under load"
                if recovery
                else "with deadlock recovery disabled a full wrap ring "
                "wedges permanently"
            )
        ),
        hint=(
            None
            if recovery
            else "enable deadlock_recovery_enabled or use a mesh"
        ),
    )


@rule("NOC009", "injection rate must be physically achievable")
def _noc009_injection_rate(ctx: LintContext) -> Iterable[Diagnostic]:
    rate = ctx.workload("injection_rate")
    if not isinstance(rate, (int, float)):
        return
    if rate > 1.0:
        yield Diagnostic(
            rule_id="NOC009",
            severity=Severity.ERROR,
            message=(
                f"injection_rate {rate} flits/node/cycle exceeds the link "
                "bandwidth of 1 flit/cycle: source queues grow without "
                "bound and latency is meaningless"
            ),
            hint="choose injection_rate <= 1.0 (paper sweeps 0.05-0.45)",
        )
    elif rate > INJECTION_RATE_SATURATION:
        yield Diagnostic(
            rule_id="NOC009",
            severity=Severity.WARNING,
            message=(
                f"injection_rate {rate} is beyond the ~"
                f"{INJECTION_RATE_SATURATION} saturation point of the "
                "paper's 8x8 mesh under uniform traffic: expect unbounded "
                "queueing delay, not steady-state latency"
            ),
        )


@rule("NOC010", "the cycle budget must plausibly cover the workload")
def _noc010_cycle_budget(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None:
        return
    w = cfg.workload
    rate = min(w.injection_rate, 1.0)
    # Lower bound: the cycles the sources alone need to emit the traffic.
    min_cycles = (
        w.num_messages * cfg.noc.flits_per_packet / (rate * cfg.noc.num_nodes)
    )
    budget = MAX_CYCLES_SAFETY_FACTOR * min_cycles
    if w.max_cycles >= budget:
        return
    yield Diagnostic(
        rule_id="NOC010",
        severity=Severity.WARNING,
        message=(
            f"max_cycles ({w.max_cycles}) is under {MAX_CYCLES_SAFETY_FACTOR}x "
            f"the analytic injection floor (~{math.ceil(min_cycles)} cycles "
            f"for {w.num_messages} messages at rate {w.injection_rate}): "
            "the run is likely to hit the cycle limit before finishing"
        ),
        hint=f"raise max_cycles to >= {math.ceil(budget)}",
    )


@rule("NOC011", "disabling handshake TMR with handshake faults loses signals")
def _noc011_handshake_tmr(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None:
        return
    if cfg.noc.handshake_tmr or not cfg.faults.rate(FaultSite.HANDSHAKE):
        return
    yield Diagnostic(
        rule_id="NOC011",
        severity=Severity.WARNING,
        message=(
            "handshake_tmr is disabled while handshake faults are injected: "
            "single glitches will eat credits and NACKs, leaking buffer "
            "slots and stranding wormholes (the Section 4.6 ablation)"
        ),
        hint="intentional for the ablation; otherwise enable handshake_tmr",
    )


@rule("NOC012", "logic faults without the AC unit become silent packet loss")
def _noc012_ac_unit(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None or cfg.noc.ac_unit_enabled:
        return
    logic_rates = [
        cfg.faults.rate(site)
        for site in (FaultSite.VC_ALLOC, FaultSite.SW_ALLOC, FaultSite.ROUTING)
    ]
    if not any(logic_rates):
        return
    yield Diagnostic(
        rule_id="NOC012",
        severity=Severity.WARNING,
        message=(
            "VA/SA/RT faults are injected with ac_unit_enabled=False: "
            "allocation errors go undetected, causing stranded wormholes "
            "and packet loss (the Section 4.3 ablation)"
        ),
        hint="intentional for the ablation; otherwise enable ac_unit_enabled",
    )


@rule("NOC013", "permanent faults need a routing function that can reroute")
def _noc013_permanent_routing(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None:
        return
    if not cfg.faults.can_lose_components:
        return
    if cfg.noc.routing in (
        RoutingAlgorithm.XY,
        RoutingAlgorithm.FT_TABLE,
        RoutingAlgorithm.SOURCE,
    ):
        # XY is substituted with fault-aware table routing at run time;
        # source-routed packets carry their own (caller-chosen) paths.
        return
    cause = (
        "a permanent-fault schedule is configured"
        if cfg.faults.permanent
        else "wear-out escalation can kill intermittent sites"
    )
    yield Diagnostic(
        rule_id="NOC013",
        severity=Severity.WARNING,
        message=(
            f"{cause} but routing "
            f"'{cfg.noc.routing.value}' cannot reroute around dead "
            "components: packets whose paths cross them will be dropped"
        ),
        hint="use xy or ft_table routing for fault-aware rerouting",
    )


@rule("NOC014", "a cycle-0 permanent schedule must not partition the mesh")
def _noc014_partition_at_start(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None or not cfg.faults.permanent:
        return
    # Dead on arrival is ``cycle <= 0`` (PermanentFault).
    dead_links, dead_routers = cfg.faults.permanent.dead_components(
        cfg.noc.num_vcs, through_cycle=0
    )
    if not dead_links and not dead_routers:
        return
    topology = topology_of(cfg)
    alive = [n for n in topology.nodes() if n not in dead_routers]
    reachable = both_alive_pairs(topology, dead_links, dead_routers)
    severed = len(alive) * (len(alive) - 1) - len(reachable)
    if severed <= 0:
        return
    example = min(
        (src, dst)
        for src in alive
        for dst in alive
        if src != dst and (src, dst) not in reachable
    )
    yield Diagnostic(
        rule_id="NOC014",
        severity=Severity.WARNING,
        message=(
            f"the cycle-0 permanent schedule partitions the "
            f"{cfg.noc.shape_text} {cfg.noc.topology}: "
            f"{severed} of {len(alive) * (len(alive) - 1)} surviving "
            f"router pairs can never communicate (e.g. "
            f"{example[0]}->{example[1]}); their traffic is dropped as "
            "unroutable from the first cycle"
        ),
        hint=(
            "remove a kill to keep the surviving routers connected, or "
            "accept that cross-partition messages count as lost"
        ),
    )


@rule("NOC015", "long intermittent bursts defeat HBH retransmission")
def _noc015_burst_outlasts_retx(ctx: LintContext) -> Iterable[Diagnostic]:
    cfg = ctx.config
    if cfg is None or not cfg.faults.intermittent:
        return
    if cfg.noc.link_protection is not LinkProtection.HBH:
        return
    # A retransmission round trip needs at least MIN_RETX_DEPTH cycles
    # (traversal + check + NACK propagation), so the receiver's give-up
    # clock runs out max_nack_retries * MIN_RETX_DEPTH cycles after the
    # first corrupt arrival.  A burst whose expected on-window covers that
    # whole span corrupts every retry too: give-up is not a tail risk but
    # the expected outcome for any flit caught at the window's start.
    giveup_window = cfg.noc.max_nack_retries * MIN_RETX_DEPTH
    for fault in cfg.faults.intermittent:
        if fault.rate < 0.5 or fault.mean_on < giveup_window:
            continue
        yield Diagnostic(
            rule_id="NOC015",
            severity=Severity.WARNING,
            message=(
                f"intermittent site {fault.node}:{fault.direction.name.lower()}"
                f" bursts for ~{fault.mean_on:g} cycles at strike rate "
                f"{fault.rate:g} — longer than the HBH give-up window of "
                f"{giveup_window} cycles, so flits caught early in a burst "
                "exhaust every retry and are accepted corrupt "
                "(retransmission_giveups)"
            ),
            hint=(
                "shorten mean_on below the give-up window, raise "
                "max_nack_retries, or protect the path with e2e/fec "
                "instead of hbh"
            ),
            witness=(
                f"retry timeline at {fault.node}:"
                f"{fault.direction.name.lower()}:",
                "corrupt arrival at burst cycle 0",
                f"-> {cfg.noc.max_nack_retries} NACK rounds x "
                f">={MIN_RETX_DEPTH} cycles each = give-up by burst cycle "
                f"{giveup_window}",
                f"-> on-window still open for ~{fault.mean_on:g} cycles "
                f"(strike rate {fault.rate:g} corrupts each replay in turn)",
            ),
        )


@rule("NOC016", "checkpoint interval never fires before the run ends")
def _noc016_checkpoint_interval_exceeds_run(
    ctx: LintContext,
) -> Iterable[Diagnostic]:
    interval = ctx.data.get("checkpoint_interval")
    max_cycles = ctx.workload("max_cycles")
    if not isinstance(interval, int) or not isinstance(max_cycles, int):
        return
    if interval < max_cycles:
        return
    # The first checkpoint would fire at cycle `interval`, which the run
    # can never reach: the checkpoint file stays empty, and every
    # supervised retry restarts from cycle 0 — checkpointing is configured
    # but inert (docs/CAMPAIGNS.md).
    yield Diagnostic(
        rule_id="NOC016",
        severity=Severity.WARNING,
        message=(
            f"checkpoint_interval {interval} >= max_cycles {max_cycles}: "
            "the run ends before the first checkpoint is ever written, so "
            "retries cannot resume and always restart from cycle 0"
        ),
        hint=(
            "lower checkpoint_interval well below the workload's "
            "max_cycles (a few checkpoints per attempt), or drop "
            "checkpointing if resume-on-retry is not wanted"
        ),
        witness=(
            f"first checkpoint due at cycle {interval}",
            f"-> run terminates by cycle {max_cycles}",
            "-> checkpoint never written; retry resumes from nothing",
        ),
    )
