"""The cycle-level invariant sanitizer (rules ``SIM101``..``SIM104``).

An opt-in checker that walks the live :class:`~repro.noc.network.Network`
after every cycle and asserts the architectural invariants the simulator is
supposed to preserve, reporting violations through the same diagnostic
format as the static passes:

* ``SIM101`` — **flit conservation**: every flit pushed into the network is
  exactly once in an input buffer, on a link, in a replay/absorption queue,
  or in a destination reassembler — unless a counter accounts for its
  removal (drop, ejection) or creation (retransmission rollback).
* ``SIM102`` — **no duplicate VC grants**: the persistent wormhole
  allocation state is bijective — an output VC is held by at most one input
  VC, held channels point back at their owners, and owners hold channels the
  routing stage actually offered.  This cross-checks the AC unit: with the
  AC enabled these can never trip; with it disabled and VA faults injected
  they catch exactly the corruptions the AC would have (switch-allocation
  duplicates are transient within a cycle and surface through ``SIM101``
  instead, as collision-garbled or stray flits).
* ``SIM103`` — **VC state-machine legality**: per-VC pipeline state is
  consistent with its buffer contents and routed assignment (ACTIVE implies
  a valid, owned output; WAITING_VA implies a candidate set; an idle VC's
  next flit is a header).
* ``SIM104`` — **scheduler bookkeeping**: each router's occupancy index
  names every input VC that holds flits and its pending-output flag is set
  whenever a channel holds replay or absorption flits
  (:meth:`Router.activity_index_problems`).  A gap there would make the
  object loop's pipeline skip flits it holds.

Undetected switch-allocator faults (AC disabled) create stray flit copies
*by design* — that is the failure mode the paper measures.  The first stray
permanently disables the conservation term and reports one INFO diagnostic,
keeping the sanitizer usable on ablation runs.

Enable via ``SimulationConfig(invariant_checks=True)`` (the simulator then
raises :class:`InvariantViolationError` on the first violation) or drive a
:class:`InvariantSanitizer` by hand around :meth:`Network.step` in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.types import VCState

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.noc.network import Network


class InvariantViolationError(RuntimeError):
    """Raised by the simulator when a per-cycle invariant fails."""

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__(
            "; ".join(d.format() for d in diagnostics) or "invariant violation"
        )


class InvariantSanitizer:
    """Per-cycle invariant checker over a live network."""

    def __init__(self, network: "Network", raise_on_violation: bool = False):
        self.network = network
        self.raise_on_violation = raise_on_violation
        self.report = DiagnosticReport()
        self.checks_run = 0
        self._conservation_enabled = True
        self._stray_notice_emitted = False

    # -- public API ---------------------------------------------------------

    def check(self, cycle: Optional[int] = None) -> List[Diagnostic]:
        """Run all invariants; returns (and accumulates) new violations."""
        at = self.network.cycle if cycle is None else cycle
        violations: List[Diagnostic] = []
        violations.extend(self._check_conservation(at))
        violations.extend(self._check_grants(at))
        violations.extend(self._check_vc_states(at))
        violations.extend(self._check_bookkeeping(at))
        self.checks_run += 1
        self.report.extend(violations)
        if self.raise_on_violation:
            hard = [v for v in violations if v.severity is Severity.ERROR]
            if hard:
                raise InvariantViolationError(hard)
        return violations

    @property
    def violations(self) -> List[Diagnostic]:
        return [d for d in self.report if d.severity is Severity.ERROR]

    # -- SIM101: flit conservation ------------------------------------------

    def _check_conservation(self, cycle: int) -> List[Diagnostic]:
        net = self.network
        counters = net.stats.counters
        if counters.get("sa_misdirected_flits", 0):
            # Stray copies from undetected SA faults break conservation by
            # design; disable the term rather than report noise.
            self._conservation_enabled = False
            if not self._stray_notice_emitted:
                self._stray_notice_emitted = True
                return [
                    Diagnostic(
                        rule_id="SIM101",
                        severity=Severity.INFO,
                        message=(
                            f"cycle {cycle}: undetected SA faults produced "
                            "stray flits; flit conservation checking is "
                            "disabled for the rest of this run"
                        ),
                    )
                ]
            return []
        if not self._conservation_enabled:
            return []

        in_network = net.in_flight_flits + sum(
            ni.reassembler.held_flits for ni in net.interfaces
        )
        inflow = (
            sum(ni.flits_sent for ni in net.interfaces)
            + counters.get("flits_retransmitted", 0)
            + counters.get("route_nack_flits_restored", 0)
        )
        outflow = (
            counters.get("flits_dropped", 0)
            + counters.get("flits_ejected", 0)
            + counters.get("stale_replay_flits_discarded", 0)
            + counters.get("permanent_fault_flits_dropped", 0)
        )
        expected = inflow - outflow
        if in_network == expected:
            return []
        return [
            Diagnostic(
                rule_id="SIM101",
                severity=Severity.ERROR,
                message=(
                    f"cycle {cycle}: flit conservation violated: "
                    f"{in_network} flits live in the network but counters "
                    f"imply {expected} (inflow {inflow} - outflow {outflow})"
                ),
                witness=(
                    f"buffered+links+pending = {net.in_flight_flits}",
                    "reassembler-held = "
                    f"{sum(ni.reassembler.held_flits for ni in net.interfaces)}",
                    f"injected = {sum(ni.flits_sent for ni in net.interfaces)}",
                    f"replayed = {counters.get('flits_retransmitted', 0)}",
                    "route-nack restored = "
                    f"{counters.get('route_nack_flits_restored', 0)}",
                    f"dropped = {counters.get('flits_dropped', 0)}",
                    "permanent-fault dropped = "
                    f"{counters.get('permanent_fault_flits_dropped', 0)}",
                    f"ejected = {counters.get('flits_ejected', 0)}",
                ),
            )
        ]

    # -- SIM102: wormhole allocation consistency ------------------------------

    def _check_grants(self, cycle: int) -> List[Diagnostic]:
        violations: List[Diagnostic] = []
        for router in self.network.routers:
            owners: dict = {}
            for port_vcs in router.inputs:
                for ivc in port_vcs:
                    if ivc.state is not VCState.ACTIVE:
                        continue
                    key = (ivc.out_port, ivc.out_vc)
                    if key in owners:
                        violations.append(
                            Diagnostic(
                                rule_id="SIM102",
                                severity=Severity.ERROR,
                                message=(
                                    f"cycle {cycle}: duplicate VC grant at "
                                    f"router {router.node}: input VCs "
                                    f"{owners[key]} and {ivc.key} both hold "
                                    f"output (port={key[0]}, vc={key[1]})"
                                ),
                            )
                        )
                    else:
                        owners[key] = ivc.key
                    channel = router._channel_of(ivc)
                    if channel is not None and channel.allocated_to != ivc.key:
                        violations.append(
                            Diagnostic(
                                rule_id="SIM102",
                                severity=Severity.ERROR,
                                message=(
                                    f"cycle {cycle}: stranded grant at "
                                    f"router {router.node}: input VC "
                                    f"{ivc.key} believes it holds output "
                                    f"(port={ivc.out_port}, vc={ivc.out_vc}) "
                                    "but the channel is allocated to "
                                    f"{channel.allocated_to}"
                                ),
                            )
                        )
            for port, channels in enumerate(router.outputs):
                for channel in channels:
                    owner = channel.allocated_to
                    if owner is None:
                        continue
                    in_port, in_vc = owner
                    ivc = router.inputs[in_port][in_vc]
                    if (
                        ivc.state is not VCState.ACTIVE
                        or (ivc.out_port, ivc.out_vc) != (port, channel.vc)
                    ):
                        violations.append(
                            Diagnostic(
                                rule_id="SIM102",
                                severity=Severity.ERROR,
                                message=(
                                    f"cycle {cycle}: dangling allocation at "
                                    f"router {router.node}: output "
                                    f"(port={port}, vc={channel.vc}) is "
                                    f"allocated to input VC {owner}, which "
                                    f"is {ivc.state.name} toward "
                                    f"(port={ivc.out_port}, vc={ivc.out_vc})"
                                ),
                            )
                        )
        return violations

    # -- SIM103: VC state-machine legality ------------------------------------

    def _check_vc_states(self, cycle: int) -> List[Diagnostic]:
        violations: List[Diagnostic] = []
        config = self.network.config.noc
        for router in self.network.routers:
            for port_vcs in router.inputs:
                for ivc in port_vcs:
                    problem = self._vc_state_problem(ivc, config)
                    if problem is not None:
                        violations.append(
                            Diagnostic(
                                rule_id="SIM103",
                                severity=Severity.ERROR,
                                message=(
                                    f"cycle {cycle}: illegal VC state at "
                                    f"router {router.node}, input VC "
                                    f"{ivc.key}: {problem}"
                                ),
                            )
                        )
        return violations

    # -- SIM104: scheduler bookkeeping ----------------------------------------

    def _check_bookkeeping(self, cycle: int) -> List[Diagnostic]:
        return [
            Diagnostic(
                rule_id="SIM104",
                severity=Severity.ERROR,
                message=f"cycle {cycle}: router {router.node}: {problem}",
            )
            for router in self.network.routers
            for problem in router.activity_index_problems()
        ]

    @staticmethod
    def _vc_state_problem(ivc, config) -> Optional[str]:
        state = ivc.state
        if state is VCState.ACTIVE:
            if not 0 <= ivc.out_port < config.num_ports:
                return f"ACTIVE with out-of-range output port {ivc.out_port}"
            if not 0 <= ivc.out_vc < config.num_vcs:
                return f"ACTIVE with out-of-range output VC {ivc.out_vc}"
            if ivc.candidates is not None and ivc.out_port not in ivc.candidates:
                return (
                    f"ACTIVE on output port {ivc.out_port}, which the "
                    f"routing stage never offered (candidates "
                    f"{ivc.candidates})"
                )
        elif state is VCState.WAITING_VA:
            if not ivc.candidates:
                return "WAITING_VA with no routing candidates"
        elif state in (VCState.IDLE, VCState.ROUTING):
            head = ivc.buffer.peek()
            if head is not None and not head.is_head:
                return (
                    f"{state.name} but the buffer head is a "
                    f"{head.ftype.name} flit (wormhole state lost)"
                )
        return None
