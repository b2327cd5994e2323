"""The pipelined virtual-channel wormhole router (Figures 1 and 2).

Each cycle a router runs two phases, driven by the network:

* :meth:`Router.receive` — consume everything the links delivered this
  cycle: credits, NACKs (link NACKs roll the output channel back onto its
  replay queue; route NACKs additionally return the flits to the input
  pipeline for re-routing), deadlock probes/activations, and flit arrivals
  (per-hop error check, sequence filter, buffer write).
* :meth:`Router.compute` — the pipeline: output stage (replay/absorption
  drains have link priority), deadlock Rule-1 probing, RT stage (with the
  Section 4.2 misroute detection), VA stage, and the combined SA/ST stage
  (speculative for the 3-stage configuration, per Section 2.1).

Fault injection happens where the corresponding hardware operates: the RT
fault perturbs the candidate set, VA/SA faults perturb grants, crossbar and
link upsets ride on the transfer record.  Detection uses only
architecturally visible state (the AC unit's three comparisons, the VA
state table's knowledge of blocked/edge ports, XY turn legality, the ECC
outcome class) — never the injector's ground truth.
"""

from __future__ import annotations

from copy import copy
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.config import NoCConfig
from repro.core.allocation_comparator import AllocationComparator
from repro.core.deadlock import DeadlockController, ProbeAction
from repro.core.retransmission import OutputChannel
from repro.faults.injector import FaultInjector
from repro.noc.allocators import SwitchAllocator, VCAllocator
from repro.noc.buffers import VCBuffer
from repro.noc.crossbar import Crossbar
from repro.noc.flit import Flit
from repro.noc.link import HandshakeChannel, Link, NackSignal, ProbeSignal
from repro.noc.routing import (
    RoutingFunction,
    SourceRouting,
    xy_arrival_is_legal,
)
from repro.noc.topology import MeshTopology
from repro.stats.collectors import StatsCollector
from repro.types import (
    Corruption,
    Direction,
    LinkProtection,
    RoutingAlgorithm,
    VCState,
)

#: Effectively infinite credit for the ejection (LOCAL output) channels:
#: the NI sinks flits immediately.
EJECTION_CREDITS = 1 << 30


class InputVC:
    """State of one input virtual channel."""

    __slots__ = (
        "port",
        "vc",
        "buffer",
        "state",
        "candidates",
        "out_port",
        "out_vc",
        "expected_seq",
        "nack_retries",
        "blocked_cycles",
        "rt_cycle",
        "va_cycle",
        "sent_this_cycle",
        "dead",
        "drain_until_head",
        "last_head_packet_id",
    )

    def __init__(self, port: int, vc: int, depth: int):
        self.port = port
        self.vc = vc
        self.buffer = VCBuffer(depth)
        self.state = VCState.IDLE
        self.candidates: Optional[List[int]] = None
        self.out_port = -1
        self.out_vc = -1
        self.expected_seq = 0
        self.nack_retries = 0
        self.blocked_cycles = 0
        self.rt_cycle = -1
        self.va_cycle = -1
        self.sent_this_cycle = False
        #: Permanently failed buffer: arrivals vanish (no credit, no NACK).
        self.dead = False
        #: An unroutable packet was torn down here: discard its remaining
        #: in-flight flits until the next header arrives (see
        #: ``Router._drop_unroutable``).
        self.drain_until_head = False
        #: Packet id of the last accepted header — lets teardown register a
        #: casualty even when every buffered flit was already forwarded.
        self.last_head_packet_id = -1

    def reset_pipeline(self) -> None:
        self.state = VCState.IDLE
        self.candidates = None
        self.out_port = -1
        self.out_vc = -1
        self.rt_cycle = -1
        self.va_cycle = -1

    @property
    def key(self) -> Tuple[int, int]:
        return (self.port, self.vc)


class Router:
    """One node's router plus its fault-tolerance machinery."""

    def __init__(
        self,
        node: int,
        config: NoCConfig,
        topology: MeshTopology,
        routing_fn: RoutingFunction,
        injector: FaultInjector,
        stats: StatsCollector,
        payload_checker=None,
    ):
        self.node = node
        self.config = config
        self.topology = topology
        self.routing_fn = routing_fn
        self.injector = injector
        self.stats = stats
        #: Optional bit-level cross-validation hook
        #: (:class:`repro.coding.payload_check.PayloadChecker`).
        self.payload_checker = payload_checker
        #: Telemetry bus (``repro.telemetry``), wired by the Network when
        #: telemetry is enabled; every publish site guards on None.
        self.telemetry = None
        P = config.num_ports
        V = config.num_vcs

        self.inputs: List[List[InputVC]] = [
            [InputVC(p, v, config.vc_buffer_depth) for v in range(V)] for p in range(P)
        ]
        self.outputs: List[List[OutputChannel]] = [
            [
                OutputChannel(
                    p, v, config.retx_buffer_depth, config.duplicate_retx_buffers
                )
                for v in range(V)
            ]
            for p in range(P)
        ]
        #: in_links[p] delivers flits *to* this router's port p; out_links[p]
        #: carries flits away.  Wired by the Network; None on mesh edges.
        self.in_links: List[Optional[Link]] = [None] * P
        self.out_links: List[Optional[Link]] = [None] * P

        self.va = VCAllocator(P, V)
        self.sa = SwitchAllocator(P, V)
        self.crossbar = Crossbar(P)
        self.ac = (
            AllocationComparator(P, V) if config.ac_unit_enabled else None
        )
        self.handshake = HandshakeChannel(tmr_enabled=config.handshake_tmr)
        self.deadlock: Optional[DeadlockController] = (
            DeadlockController(node, config.deadlock_threshold)
            if config.deadlock_recovery_enabled
            else None
        )

        #: Output ports that physically exist here (have a link) plus LOCAL.
        self.valid_out_ports: Set[int] = {int(Direction.LOCAL)}
        # Ejection channels sink into the NI.
        for channel in self.outputs[Direction.LOCAL]:
            channel.credits = EJECTION_CREDITS

        # Pipeline gating (see module docstring of repro.config):
        stages = config.pipeline_stages
        self._va_delay = 1 if stages >= 3 else 0
        self._sa_delay = 1 if stages == 4 else 0
        self._is_hbh = config.link_protection is LinkProtection.HBH
        self._is_port_aware = getattr(routing_fn, "port_aware", False)
        # The Section 4.2 receiver-side XY turn check only applies when the
        # network really runs plain XY — under fault-aware table routing
        # (substituted when permanent faults are scheduled) legal paths may
        # violate XY minimality, so the check must stand down.
        self._is_xy = (
            config.routing is RoutingAlgorithm.XY and not self._is_port_aware
        )
        self._is_source_routed = isinstance(routing_fn, SourceRouting)
        self._probe_hop_limit = 4 * topology.num_nodes
        #: Permanently failed (the whole router died); receive/compute are
        #: no-ops so both cycle loops skip it identically.
        self.dead = False
        #: Called with a packet id when a permanent fault destroys one of
        #: its flits; wired by the Network to ``RunRecord.note_casualty``.
        self.casualty_hook: Optional[Callable[[int], None]] = None
        #: Cached routing decisions: ``dst -> (Direction list, port-index
        #: list)``, keyed ``(in_port, dst)`` for port-aware functions.  Only
        #: for routing functions whose candidate set is a pure function of
        #: the key — see ``RoutingFunction.cacheable``.  The cached lists
        #: are never mutated (every consumer rebinds or builds a fresh
        #: list), so sharing them across calls is safe.
        self._route_cache: Optional[Dict[object, Tuple[List[Direction], List[int]]]] = (
            {} if getattr(routing_fn, "cacheable", False) else None
        )

    # ------------------------------------------------------------------
    # wiring (called by the Network)
    # ------------------------------------------------------------------

    def attach_output_link(self, port: int, link: Link) -> None:
        self.out_links[port] = link
        if port != Direction.LOCAL:
            self.valid_out_ports.add(port)
        for channel in self.outputs[port]:
            if port != Direction.LOCAL:
                channel.credits = self.config.vc_buffer_depth

    def attach_input_link(self, port: int, link: Link) -> None:
        self.in_links[port] = link

    # ------------------------------------------------------------------
    # phase 1: receive
    # ------------------------------------------------------------------

    def receive(self, cycle: int) -> None:
        if self.dead:
            return
        self._receive_reverse_signals(cycle)
        self._receive_probes(cycle)
        self._receive_flits(cycle)

    def _receive_reverse_signals(self, cycle: int) -> None:
        check_glitch = not self.injector.is_fault_free
        for port, link in enumerate(self.out_links):
            if link is None:
                continue
            for credit in link.credit_arrivals(cycle):
                if check_glitch and not self.handshake.sample(
                    True, self.injector.handshake_glitch(cycle, self.node)
                ):
                    continue  # lost credit (TMR disabled and glitched)
                self.outputs[port][credit.vc].credits += 1
            for nack in link.nack_arrivals(cycle):
                if check_glitch and not self.handshake.sample(
                    True, self.injector.handshake_glitch(cycle, self.node)
                ):
                    continue
                self._handle_nack(cycle, port, nack)

    def _handle_nack(self, cycle: int, port: int, nack: NackSignal) -> None:
        channel = self.outputs[port][nack.vc]
        if nack.kind == "link":
            added = channel.rollback(nack.seq)
            if added:
                self.stats.count("retransmission_rounds")
                self.stats.count("link_errors_corrected")
                self.stats.count("flits_retransmitted", added)
                if self.telemetry is not None:
                    self.telemetry.publish(
                        cycle,
                        "flit_replay",
                        self.node,
                        kind="link",
                        port=port,
                        vc=nack.vc,
                        flits=added,
                    )
        elif nack.kind == "route":
            # Replay copies at the rolled-back sequences are about to be
            # discarded as stale; the conservation invariant needs the tally.
            stale = sum(1 for s, _ in channel.replay_queue if s >= nack.seq)
            if stale:
                self.stats.count("stale_replay_flits_discarded", stale)
            flits = channel.extract_rollback_flits(nack.seq)
            if not flits:
                return
            channel.next_seq = nack.seq
            channel.credits += len(flits)
            owner = channel.allocated_to or channel.last_owner
            channel.release()
            self.stats.count("route_nack_rollbacks")
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle,
                    "flit_replay",
                    self.node,
                    kind="route",
                    port=port,
                    vc=nack.vc,
                    flits=len(flits),
                )
            # Flit-granular tally (the rollback counter above is per event):
            # these flits re-enter the input pipeline from the uncounted
            # retransmission-buffer storage, so conservation needs the count.
            self.stats.count("route_nack_flits_restored", len(flits))
            if owner is None:
                self.stats.count("route_nack_orphans")
                return
            ivc = self.inputs[owner[0]][owner[1]]
            ivc.buffer.push_rollback(flits)
            ivc.reset_pipeline()
        else:
            raise ValueError(f"unknown NACK kind {nack.kind!r}")

    def _receive_probes(self, cycle: int) -> None:
        if self.deadlock is None:
            return
        for port, link in enumerate(self.in_links):
            if link is None:
                continue
            for probe in link.probe_arrivals(cycle):
                self._handle_probe(cycle, port, probe)

    def _resolve_probe_route(self, ivc: InputVC) -> Optional[Tuple[int, int]]:
        """Where a probe inspecting ``ivc`` continues (Rule 2's "modifying
        the VC identifier accordingly").

        An ACTIVE VC's packet waits for credits on its own output VC: the
        probe follows that channel.  A WAITING_VA head waits for a virtual
        channel *held by another wormhole through this router*: the probe
        follows the holder's channel — that wormhole's tail is what must
        advance before the head can allocate.
        """
        if ivc.state is VCState.ACTIVE:
            route: Optional[Tuple[int, int]] = (ivc.out_port, ivc.out_vc)
        elif ivc.state is VCState.WAITING_VA and ivc.candidates:
            route = None
            for port in ivc.candidates:
                for channel in self.outputs[port]:
                    owner = channel.allocated_to
                    if owner is None:
                        continue
                    holder = self.inputs[owner[0]][owner[1]]
                    if holder.state is VCState.ACTIVE:
                        route = (holder.out_port, holder.out_vc)
                        break
                if route is not None:
                    break
        else:
            route = None
        if route is not None and (
            route[0] == int(Direction.LOCAL) or self.out_links[route[0]] is None
        ):
            return None  # ejection never deadlocks; edges have no link
        return route

    def _handle_probe(self, cycle: int, port: int, probe: ProbeSignal) -> None:
        assert self.deadlock is not None
        if probe.hops >= self._probe_hop_limit:
            self.stats.count("probes_hop_limited")
            return
        if not 0 <= probe.target_vc < self.config.num_vcs:
            return
        ivc = self.inputs[port][probe.target_vc]
        blocked = not ivc.buffer.is_empty and ivc.blocked_cycles >= 1
        route = self._resolve_probe_route(ivc) if blocked else None
        if route is None:
            blocked = False

        if probe.kind == "probe":
            decision = self.deadlock.on_probe(cycle, probe.origin, blocked, route)
            if decision.action is ProbeAction.FORWARD:
                self._forward_signal(
                    cycle, probe.origin, "probe", decision.out_port, decision.out_vc, probe.hops + 1
                )
            elif decision.action is ProbeAction.DEADLOCK_DETECTED:
                self.stats.count("deadlocks_detected")
                # Send the activation around the same blocked chain.
                if route is not None:
                    self._forward_signal(
                        cycle, self.node, "activation", route[0], route[1], 0
                    )
                else:
                    # The chain resolved meanwhile; no recovery needed.
                    self.stats.count("deadlocks_resolved_before_recovery")
        elif probe.kind == "activation":
            decision = self.deadlock.on_activation(cycle, probe.origin, route)
            if decision.action is ProbeAction.ENTER_RECOVERY:
                self.stats.count("recovery_activations")
                if decision.forward_out_port is not None:
                    self._forward_signal(
                        cycle,
                        probe.origin,
                        "activation",
                        decision.forward_out_port,
                        decision.forward_out_vc,
                        probe.hops + 1,
                    )

    def _forward_signal(
        self, cycle: int, origin: int, kind: str, out_port: int, out_vc: int, hops: int
    ) -> None:
        link = self.out_links[out_port]
        if link is None:
            return
        link.send_probe(cycle, ProbeSignal(origin, out_vc, kind, hops))
        self.stats.energy_event("probe")

    def _receive_flits(self, cycle: int) -> None:
        for port, link in enumerate(self.in_links):
            if link is None:
                continue
            for transfer in link.flit_arrivals(cycle):
                self._accept_transfer(cycle, port, link, transfer)

    def _accept_transfer(self, cycle: int, port: int, link: Link, transfer) -> None:
        ivc = self.inputs[port][transfer.vc]
        flit: Flit = transfer.flit
        corruption: Corruption = transfer.corruption

        if ivc.dead:
            # Arrivals into a permanently failed buffer vanish: no credit
            # (the upstream channel is torn down with it) and no NACK.
            self.stats.count("permanent_fault_flits_dropped")
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle,
                    "flit_drop",
                    self.node,
                    reason="dead_vc",
                    packet=flit.packet_id,
                )
            if self.casualty_hook is not None:
                self.casualty_hook(flit.packet_id)
            return

        if ivc.drain_until_head and not flit.is_head:
            # Straggler flits of a packet torn down by a permanent fault:
            # consume them (advancing the sequence window) and hand the
            # buffer slot straight back — they never occupy it.  Headers
            # fall through to normal processing; the drain flag only clears
            # once one is actually accepted, so a corrupt header that gets
            # NACKed and replayed is still handled correctly.
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle,
                    "flit_drop",
                    self.node,
                    reason="drain",
                    packet=flit.packet_id,
                )
            if transfer.seq == ivc.expected_seq:
                ivc.expected_seq += 1
                ivc.nack_retries = 0
                self.stats.count("permanent_fault_flits_dropped")
                if not link.dead:
                    link.send_credit(cycle, transfer.vc)
            else:
                self.stats.count("flits_dropped")
            return

        if self._is_hbh:
            if corruption is Corruption.SINGLE:
                # The SEC stage corrects single-bit upsets in place.
                corruption = Corruption.NONE
                self.stats.count("fec_corrections")
            if corruption is Corruption.MULTI:
                if transfer.seq == ivc.expected_seq:
                    ivc.nack_retries += 1
                    if ivc.nack_retries <= self.config.max_nack_retries:
                        link.send_nack(
                            cycle, NackSignal(transfer.vc, ivc.expected_seq, "link")
                        )
                        self.stats.energy_event("nack")
                        self.stats.count("flits_dropped")
                        if self.telemetry is not None:
                            self.telemetry.publish(
                                cycle,
                                "nack",
                                self.node,
                                kind="link",
                                port=port,
                                vc=transfer.vc,
                                seq=ivc.expected_seq,
                                retry=ivc.nack_retries,
                            )
                        return
                    # Endless-retransmission escape (Section 4.5): accept
                    # the corrupt copy rather than loop forever.
                    self.stats.count("retransmission_giveups")
                    if self.telemetry is not None:
                        self.telemetry.publish(
                            cycle,
                            "retransmission_giveup",
                            self.node,
                            port=port,
                            vc=transfer.vc,
                            packet=flit.packet_id,
                        )
                    flit = self._materialize_corruption(flit, corruption)
                else:
                    self.stats.count("flits_dropped")
                    if self.telemetry is not None:
                        self.telemetry.publish(
                            cycle,
                            "flit_drop",
                            self.node,
                            reason="out_of_window",
                            packet=flit.packet_id,
                        )
                    return
        elif corruption is not Corruption.NONE:
            # Unchecked schemes: the upset lands in the flit's fields.
            flit = self._materialize_corruption(flit, corruption)

        if transfer.seq != ivc.expected_seq:
            # Out-of-window arrival (in-flight flit overtaken by a NACK, a
            # stray copy from an undetected SA fault, ...): silently dropped,
            # exactly what the sequence check in the receive logic does.
            self.stats.count("flits_dropped")
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle,
                    "flit_drop",
                    self.node,
                    reason="out_of_window",
                    packet=flit.packet_id,
                )
            return
        ivc.expected_seq += 1
        ivc.nack_retries = 0
        ivc.buffer.push(flit)
        if flit.is_head:
            ivc.last_head_packet_id = flit.packet_id
            ivc.drain_until_head = False
        self.stats.energy_event("buffer_write")

    def _materialize_corruption(self, flit: Flit, severity: Corruption) -> Flit:
        """Land an in-transit upset in the flit's fields (header-aware)."""
        from repro.core.schemes import HeaderField, apply_header_upset, pick_header_field

        if flit.is_head:
            field = pick_header_field(self.injector.rng)
            if field is HeaderField.PAYLOAD and self.payload_checker is not None:
                self.payload_checker.corrupt_payload(flit, severity)
            apply_header_upset(
                flit, severity, field, self.topology.num_nodes, self.injector.rng
            )
        else:
            if self.payload_checker is not None:
                self.payload_checker.corrupt_payload(flit, severity)
            flit.corrupt(severity)
        return flit

    # ------------------------------------------------------------------
    # phase 2: compute
    # ------------------------------------------------------------------

    def compute(self, cycle: int) -> int:
        """Run the pipeline for one cycle; returns link sends (for stats)."""
        if self.dead:
            return 0
        # One scan builds the working set; every stage iterates only VCs
        # that actually hold flits (the common case is an idle VC).
        occupied = [
            ivc
            for port_vcs in self.inputs
            for ivc in port_vcs
            if not ivc.buffer.is_empty
        ]
        ports_link_busy = self._output_stage(cycle)
        if self.deadlock is not None:
            self._probe_stage(cycle, occupied)
        self._rt_stage(cycle, occupied)
        self._va_stage(cycle, occupied)
        sends = self._sa_stage(cycle, ports_link_busy, occupied)
        sends += len(ports_link_busy)
        self._update_blocked_counters(occupied)
        return sends

    # -- output stage: replay and absorption drains have link priority ----

    def _output_stage(self, cycle: int) -> Set[int]:
        busy: Set[int] = set()
        for port, channels in enumerate(self.outputs):
            link = self.out_links[port]
            if link is None:
                continue
            sent = False
            for channel in channels:
                if channel.replay_queue:
                    seq, flit = channel.replay_queue.popleft()
                    self._transmit(cycle, link, channel, flit, seq, retransmit=True)
                    sent = True
                    break
            if not sent:
                for channel in channels:
                    if channel.absorption_queue and channel.credits > 0:
                        flit = channel.absorption_queue.popleft()
                        channel.credits -= 1
                        self._transmit(
                            cycle, link, channel, flit, channel.take_seq()
                        )
                        sent = True
                        break
            if sent:
                busy.add(port)
        return busy

    def _transmit(
        self,
        cycle: int,
        link: Link,
        channel: OutputChannel,
        flit: Flit,
        seq: int,
        retransmit: bool = False,
        extra_corruption: Corruption = Corruption.NONE,
    ) -> None:
        """Drive one flit onto a link, maintaining the replay window."""
        if link.dead:
            # Backstop for wormholes torn down mid-flight by a permanent
            # fault: anything still driven at a dead link is lost on the
            # wire (the teardown in ``on_output_dead`` makes this rare).
            self.stats.count("permanent_fault_flits_dropped")
            if self.casualty_hook is not None:
                self.casualty_hook(flit.packet_id)
            return
        corruption = extra_corruption
        copy_corrupt = False
        if retransmit:
            # A copy corrupted while stored (Section 4.5) replays corrupt —
            # the barrel shifter recirculates the same bad bits, so without
            # the duplicate-buffer option this is the paper's "endless
            # retransmission loop" (bounded by the receiver's give-up).
            if seq in channel.retx.corrupted_seqs:
                restored = channel.retx.restore_from_duplicate(seq)
                if restored is not None:
                    self.stats.count("retx_buffer_restores")
                else:
                    corruption = Corruption.MULTI
                    copy_corrupt = True
            self.stats.energy_event("retx_read")
        if not link.is_local:
            if not retransmit:
                flit.hops += 1
            channel.retx.store(seq, flit)
            if copy_corrupt:
                channel.retx.corrupted_seqs.add(seq)
            if self.injector.retx_upset(cycle, self.node):
                channel.retx.corrupted_seqs.add(seq)
            upset = self.injector.link_upset(cycle, self.node, link.src_port)
            if upset is not None and upset.value > corruption.value:
                corruption = upset
            self.stats.energy_event("link")
            self.stats.energy_event("retx_write")
        else:
            # Ejection to the local NI: the PE channel neither suffers link
            # upsets nor NACKs, so no replay copy is kept.
            self.stats.energy_event("local_link")
        link.send_flit(cycle, channel.vc, seq, flit, corruption)

    # -- deadlock Rule 1 ----------------------------------------------------

    def _probe_stage(self, cycle: int, occupied: List[InputVC]) -> None:
        assert self.deadlock is not None
        for ivc in occupied:
            if ivc.blocked_cycles <= self.deadlock.threshold:
                continue
            route = self._resolve_probe_route(ivc)
            if route is None:
                continue
            if self.deadlock.should_probe(cycle, ivc.blocked_cycles):
                self._forward_signal(cycle, self.node, "probe", route[0], route[1], 0)
                self.deadlock.note_probe_sent(cycle)
                if self.telemetry is not None:
                    self.telemetry.publish(
                        cycle,
                        "probe_launch",
                        self.node,
                        port=route[0],
                        vc=route[1],
                        blocked_cycles=ivc.blocked_cycles,
                    )

    # -- RT stage -------------------------------------------------------------

    def _rt_stage(self, cycle: int, occupied: List[InputVC]) -> None:
        for ivc in occupied:
            if ivc.state not in (VCState.IDLE, VCState.ROUTING):
                continue
            head = ivc.buffer.peek()
            if head is None or not head.is_head:
                continue
            if self._detect_misroute(cycle, ivc, head):
                continue
            self._route(cycle, ivc, head)

    def _detect_misroute(self, cycle: int, ivc: InputVC, head: Flit) -> bool:
        """Section 4.2 receiver-side detection (deterministic routing + HBH).

        Only meaningful for flits that arrived over a mesh link while their
        sender still holds the replay window; rollback-queue flits are
        re-issues of our own and are exempt.
        """
        if not (self._is_hbh and self._is_xy):
            return False
        if ivc.port == int(Direction.LOCAL) or ivc.buffer.rollback_queue:
            return False
        link = self.in_links[ivc.port]
        if link is None or link.is_local:
            return False
        if xy_arrival_is_legal(
            self.topology, self.node, Direction(ivc.port), head.dst
        ):
            return False
        # Misroute detected: drop the header (and any followers — they are
        # all flits of the same packet) and NACK the sender to re-route.
        self.stats.count("rt_errors_corrected")
        self.stats.count("route_nacks_sent")
        header_seq = head.link_seq
        dropped = ivc.buffer.clear()
        ivc.expected_seq = header_seq
        ivc.reset_pipeline()
        link.send_nack(cycle, NackSignal(ivc.vc, header_seq, "route"))
        self.stats.energy_event("nack")
        self.stats.count("flits_dropped", dropped)
        if self.telemetry is not None:
            self.telemetry.publish(
                cycle,
                "nack",
                self.node,
                kind="route",
                port=ivc.port,
                vc=ivc.vc,
                seq=header_seq,
                packet=head.packet_id,
            )
        return True

    def _route(self, cycle: int, ivc: InputVC, head: Flit) -> None:
        cache = self._route_cache
        key: object = (ivc.port, head.dst) if self._is_port_aware else head.dst
        if cache is not None:
            entry = cache.get(key)
            if entry is None:
                directions = self._compute_candidates(ivc, head)
                entry = (directions, [int(d) for d in directions])
                cache[key] = entry
            directions, candidates = entry
        else:
            directions = self._compute_candidates(ivc, head)
            candidates = [int(d) for d in directions]
        self.stats.energy_event("rt_op")
        if self._is_port_aware and not candidates:
            # The fault-aware tables have no legal continuation for this
            # packet (destination unreachable, or every turn-legal channel
            # died after it entered the network): tear it down.
            self._drop_unroutable(cycle, ivc, head)
            return
        if self.injector.routing_upset(cycle, self.node):
            wrong = self.injector.misdirect(
                directions, [Direction(p) for p in range(self.config.num_ports)]
            )
            candidates = [int(wrong)]
        # Local catch (Section 4.2): the VA state table knows edge/blocked
        # directions; a candidate set with no valid member forces a re-route
        # next cycle (1-cycle penalty).
        usable = [p for p in candidates if p in self.valid_out_ports]
        if not usable:
            self.stats.count("rt_errors_corrected")
            ivc.state = VCState.ROUTING
            ivc.candidates = None
            return
        ivc.candidates = usable
        ivc.state = VCState.WAITING_VA
        ivc.rt_cycle = cycle

    def _compute_candidates(self, ivc: InputVC, head: Flit) -> List[Direction]:
        if self._is_port_aware:
            return self.routing_fn.candidates_from(  # type: ignore[attr-defined]
                self.topology, self.node, Direction(ivc.port), head
            )
        return self.routing_fn.candidates(self.topology, self.node, head)

    def _drop_unroutable(self, cycle: int, ivc: InputVC, head: Flit) -> None:
        """Tear down a packet the reconfigured tables cannot deliver."""
        self.stats.count("packets_unroutable")
        if self.telemetry is not None:
            self.telemetry.publish(
                cycle,
                "flit_drop",
                self.node,
                reason="unroutable",
                packet=head.packet_id,
            )
        dropped = self._flush_input_vc(cycle, ivc, credit=True)
        self.stats.count("permanent_fault_flits_dropped", len(dropped))
        if not any(f.is_tail for f in dropped):
            ivc.drain_until_head = True
        if self.casualty_hook is not None:
            self.casualty_hook(head.packet_id)

    # -- VA stage -------------------------------------------------------------

    def _va_stage(self, cycle: int, occupied: List[InputVC]) -> None:
        in_recovery = self.deadlock is not None and self.deadlock.in_recovery(cycle)
        local_port = int(Direction.LOCAL)
        requests: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        candidates_map: Dict[Tuple[int, int], List[int]] = {}
        V = self.config.num_vcs
        for ivc in occupied:
            if ivc.state is not VCState.WAITING_VA:
                continue
            if cycle < ivc.rt_cycle + self._va_delay:
                continue
            if in_recovery and ivc.port == local_port:
                # "No new packets are allowed to enter the transmission
                # buffers involved in the deadlock recovery": fresh local
                # injections wait; packets already in the network keep
                # allocating so tails can advance and release channels.
                continue
            assert ivc.candidates is not None
            outs = [(p, v) for p in ivc.candidates for v in range(V)]
            requests[ivc.key] = outs
            candidates_map[ivc.key] = ivc.candidates
        if not requests:
            return

        reserved = {
            (p, v): self.outputs[p][v].is_allocated
            for p in range(self.config.num_ports)
            for v in range(V)
        }
        available = {
            out: not taken and not self.outputs[out[0]][out[1]].dead
            for out, taken in reserved.items()
        }
        grants = self.va.allocate(requests, available)
        if not grants:
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle, "vc_alloc_fail", self.node, count=len(requests)
                )
            return

        # Fault injection: perturb grants per Section 4.1's scenarios.  As
        # with the SA path, the AC's comparisons provably pass on clean
        # grants, so they are only evaluated when a fault could have struck.
        perturbable = bool(self.injector._rate_va)
        if perturbable:
            grants = self._perturb_va_grants(cycle, grants, reserved)

        if self.ac is not None and perturbable:
            self.stats.energy_event("ac_check")
            errors = self.ac.check_va(grants, candidates_map, reserved)
            flagged = {e.requester for e in errors}
            if flagged:
                self.stats.count("va_errors_corrected", len(flagged))
                grants = {k: v for k, v in grants.items() if k not in flagged}

        if self.telemetry is not None:
            failed = len(requests) - len(grants)
            if failed:
                self.telemetry.publish(
                    cycle, "vc_alloc_fail", self.node, count=failed
                )

        for requester, (out_port, out_vc) in grants.items():
            ivc = self.inputs[requester[0]][requester[1]]
            ivc.out_port = out_port
            ivc.out_vc = out_vc
            ivc.state = VCState.ACTIVE
            ivc.va_cycle = cycle
            self.stats.energy_event("va_grant")
            if 0 <= out_vc < V:
                self.outputs[out_port][out_vc].allocate(requester)
            head = ivc.buffer.peek()
            if self._is_source_routed and head is not None:
                SourceRouting.consume_hop(head)

    def _perturb_va_grants(
        self,
        cycle: int,
        grants: Dict[Tuple[int, int], Tuple[int, int]],
        reserved: Dict[Tuple[int, int], bool],
    ) -> Dict[Tuple[int, int], Tuple[int, int]]:
        V = self.config.num_vcs
        perturbed = dict(grants)
        reserved_list = [out for out, taken in reserved.items() if taken]
        for requester, (out_port, out_vc) in grants.items():
            if not self.injector.va_upset(cycle, self.node):
                continue
            scenario = self.injector.pick_va_scenario()
            if scenario == "duplicate" and not reserved_list:
                scenario = "invalid"
            if scenario == "invalid":
                perturbed[requester] = (out_port, V)  # nonexistent VC id
            elif scenario == "duplicate":
                perturbed[requester] = self.injector.choice(reserved_list)  # type: ignore[assignment]
            elif scenario == "wrong_vc_same_pc":
                perturbed[requester] = (out_port, (out_vc + 1) % V)
            elif scenario == "wrong_pc":
                others = [
                    p for p in range(self.config.num_ports) if p != out_port
                ]
                wrong_port = self.injector.choice(others)
                perturbed[requester] = (wrong_port, out_vc)  # type: ignore[assignment]
        return perturbed

    # -- SA / ST stage ----------------------------------------------------------

    def _sa_stage(
        self, cycle: int, ports_link_busy: Set[int], occupied: List[InputVC]
    ) -> int:
        in_recovery = self.deadlock is not None and self.deadlock.in_recovery(cycle)
        bids: Dict[Tuple[int, int], int] = {}
        faulted: List[Tuple[Tuple[int, int], str]] = []
        rate_sa = self.injector._rate_sa
        local_port = int(Direction.LOCAL)

        for ivc in occupied:
            if ivc.state is not VCState.ACTIVE:
                continue
            if cycle < ivc.va_cycle + self._sa_delay:
                continue
            channel = self._channel_of(ivc)
            if channel is None or channel.allocated_to != ivc.key:
                continue  # stranded by an undetected VA fault
            can_send = channel.credits > 0 and not (
                channel.replay_queue or channel.absorption_queue
            )
            can_absorb = (
                in_recovery
                and ivc.out_port != local_port
                and channel.absorption_capacity > 0
            )
            if ivc.out_port in ports_link_busy:
                # A replay/absorption drain holds the link this cycle;
                # only a recovery-mode absorption can still proceed.
                can_send = False
            if not (can_send or can_absorb):
                continue
            bids[ivc.key] = ivc.out_port
            # Section 4.3 faults strike per arbitration operation, which
            # is why SA errors dominate Figure 13(a): a blocked flit
            # re-arbitrates every cycle.
            if rate_sa and self.injector.sa_upset(cycle, self.node):
                faulted.append((ivc.key, self.injector.pick_sa_scenario()))

        if not bids:
            return 0
        grants = self.sa.allocate(bids)
        pairs: List[Tuple[Tuple[int, int], int]] = list(grants.items())
        clean = not faulted and not self.injector._rate_xbar
        if faulted:
            pairs = self._perturb_sa_grants(pairs, faulted)

        # The AC always runs in hardware, but with unperturbed grants its
        # comparisons provably pass (the allocator grants one output per
        # port, agreeing with the VA state), so the simulator only evaluates
        # it when a fault could have struck this cycle.
        if self.ac is not None and pairs and not clean:
            self.stats.energy_event("ac_check")
            errors = self.ac.check_sa(pairs, bids)
            if errors:
                flagged = {e.requester for e in errors}
                self.stats.count("sa_errors_corrected", len(flagged))
                pairs = [p for p in pairs if p[0] not in flagged]

        if clean:
            return self._switch_traversal_fast(cycle, pairs, ports_link_busy, in_recovery)
        return self._switch_traversal(cycle, pairs, ports_link_busy, in_recovery)

    def _channel_of(self, ivc: InputVC) -> Optional[OutputChannel]:
        if not (
            0 <= ivc.out_port < self.config.num_ports
            and 0 <= ivc.out_vc < self.config.num_vcs
        ):
            return None
        return self.outputs[ivc.out_port][ivc.out_vc]

    def _perturb_sa_grants(
        self,
        pairs: List[Tuple[Tuple[int, int], int]],
        faulted: List[Tuple[Tuple[int, int], str]],
    ) -> List[Tuple[Tuple[int, int], int]]:
        granted = dict(pairs)
        occupied_ports = set(granted.values())
        P = self.config.num_ports
        result = list(pairs)

        def replace(requester: Tuple[int, int], new_port: int) -> None:
            for i, (req, _) in enumerate(result):
                if req == requester:
                    result[i] = (req, new_port)
                    return
            result.append((requester, new_port))

        for requester, scenario in faulted:
            correct_port = granted.get(requester)
            if scenario == "blocked":
                if correct_port is not None:
                    result = [(r, p) for r, p in result if r != requester]
                continue
            if scenario == "wrong_output":
                base = correct_port if correct_port is not None else 0
                wrong = self.injector.choice([p for p in range(P) if p != base])
                replace(requester, wrong)  # type: ignore[arg-type]
            elif scenario == "duplicate_output":
                others = [p for p in occupied_ports if p != correct_port]
                if others:
                    replace(requester, self.injector.choice(others))  # type: ignore[arg-type]
                else:
                    base = correct_port if correct_port is not None else 0
                    wrong = self.injector.choice([p for p in range(P) if p != base])
                    replace(requester, wrong)  # type: ignore[arg-type]
            elif scenario == "multicast":
                if correct_port is None:
                    continue
                extra = self.injector.choice(
                    [p for p in range(P) if p != correct_port]
                )
                result.append((requester, extra))  # type: ignore[arg-type]
        return result

    def _switch_traversal_fast(
        self,
        cycle: int,
        pairs: List[Tuple[Tuple[int, int], int]],
        ports_link_busy: Set[int],
        in_recovery: bool,
    ) -> int:
        """Fault-free switch traversal: no collisions, no strays, no hook.

        Semantically identical to :meth:`_switch_traversal` when no
        SA/crossbar fault fired this cycle; kept separate because this is
        the simulator's hottest path.
        """
        sends = 0
        energy = self.stats.energy_event
        local = int(Direction.LOCAL)
        for requester, out_port in pairs:
            in_port, in_vc = requester
            ivc = self.inputs[in_port][in_vc]
            channel = self.outputs[out_port][ivc.out_vc]
            link = self.out_links[out_port]
            flit, from_fifo = ivc.buffer.pop_with_origin()
            energy("buffer_read")
            energy("sa_grant")
            energy("xbar")
            self.crossbar.traversals += 1
            if from_fifo:
                in_link = self.in_links[in_port]
                if in_link is not None:
                    in_link.send_credit(cycle, in_vc)
                    energy("credit")
            if channel.credits > 0 and link is not None and out_port not in ports_link_busy:
                channel.credits -= 1
                self._transmit(cycle, link, channel, flit, channel.take_seq())
                sends += 1
            elif in_recovery and out_port != local and channel.absorption_capacity > 0:
                channel.absorb(flit)
                self.stats.count("recovery_forwards")
                energy("retx_write")
            else:
                ivc.buffer.push_rollback([flit])
                continue
            ivc.sent_this_cycle = True
            ivc.blocked_cycles = 0
            if flit.is_tail:
                channel.release()
                ivc.reset_pipeline()
        return sends

    def _switch_traversal(
        self,
        cycle: int,
        pairs: List[Tuple[Tuple[int, int], int]],
        ports_link_busy: Set[int],
        in_recovery: bool,
    ) -> int:
        """Pop winners' flits, traverse the crossbar, drive the outputs."""
        if not pairs:
            return 0
        # Pop each winning flit exactly once; multicast faults reuse it.
        popped: Dict[Tuple[int, int], Tuple[Flit, bool]] = {}
        moves: List[Tuple[int, int, Flit]] = []
        intended: Dict[int, Tuple[Tuple[int, int], int]] = {}
        for requester, out_port in pairs:
            ivc = self.inputs[requester[0]][requester[1]]
            if requester not in popped:
                flit, from_fifo = ivc.buffer.pop_with_origin()
                popped[requester] = (flit, from_fifo)
                self.stats.energy_event("buffer_read")
                if from_fifo:
                    in_link = self.in_links[requester[0]]
                    if in_link is not None:
                        in_link.send_credit(cycle, requester[1])
                        self.stats.energy_event("credit")
            flit = popped[requester][0]
            moves.append((requester[0], out_port, flit))
            if out_port == self.inputs[requester[0]][requester[1]].out_port:
                intended[id(flit)] = (requester, out_port)
            self.stats.energy_event("sa_grant")

        hook = None
        if self.injector._rate_xbar:
            hook = lambda f: self.injector.crossbar_upset(cycle, self.node)
        driven = self.crossbar.traverse(moves, hook)
        self.stats.energy_event("xbar", len(driven))

        sends = 0
        for out_port, flit, corruption in driven:
            requester_entry = intended.get(id(flit))
            is_intended = (
                requester_entry is not None and requester_entry[1] == out_port
            )
            if is_intended:
                assert requester_entry is not None
                requester = requester_entry[0]
                ivc = self.inputs[requester[0]][requester[1]]
                channel = self._channel_of(ivc)
                assert channel is not None
                link = self.out_links[out_port]
                if channel.credits > 0 and link is not None and out_port not in ports_link_busy:
                    channel.credits -= 1
                    # (LOCAL is ejection: the NI sinks it next cycle.)
                    self._transmit(
                        cycle, link, channel, flit, channel.take_seq(),
                        extra_corruption=corruption,
                    )
                    sends += 1
                elif in_recovery and channel.absorption_capacity > 0:
                    channel.absorb(flit)
                    self.stats.count("recovery_forwards")
                    self.stats.energy_event("retx_write")
                else:
                    # Port stolen by a replay this cycle (or credit raced
                    # away): the flit must not be lost — put it back.
                    ivc.buffer.push_rollback([flit])
                    continue
                ivc.sent_this_cycle = True
                ivc.blocked_cycles = 0
                if flit.is_tail:
                    channel.release()
                    ivc.reset_pipeline()
            else:
                # Undetected SA fault (AC disabled): the flit appears on the
                # wrong output wires with scrambled control fields; the
                # downstream sequence filter will discard it.
                link = self.out_links[out_port]
                if link is not None and out_port not in ports_link_busy:
                    stray = flit
                    if requester_entry is not None:
                        # Multicast copy: duplicate the flit object so the
                        # real stream's copy is not aliased.
                        stray = copy(flit)
                    link.send_flit(cycle, min(flit.seq, self.config.num_vcs - 1), -1, stray, corruption)
                    sends += 1
                self.stats.count("sa_misdirected_flits")
        return sends

    # -- permanent-fault teardown ------------------------------------------

    def invalidate_route_cache(self) -> None:
        """Discard memoized routing decisions after a reconfiguration.

        Headers already routed but not yet granted a VC re-enter the RT
        stage so they route against the rebuilt tables — their snapshot
        candidate lists may point at channels that no longer exist.
        """
        if self._route_cache is not None:
            self._route_cache.clear()
        for port_vcs in self.inputs:
            for ivc in port_vcs:
                if ivc.state is VCState.WAITING_VA:
                    ivc.state = VCState.ROUTING
                    ivc.candidates = None

    def _flush_input_vc(
        self, cycle: int, ivc: InputVC, credit: bool
    ) -> List[Flit]:
        """Drop everything buffered in ``ivc`` and reset its pipeline.

        With ``credit=True`` each dropped FIFO slot is handed back to the
        upstream sender (if its link is still alive) — otherwise the
        upstream channel starves and never drains.  Rollback-queue flits
        were never credited and never are.  Returns the dropped flits for
        the caller's accounting.
        """
        flits = list(ivc.buffer)
        if flits:
            fifo_count = ivc.buffer.occupancy
            ivc.buffer.clear()
            in_link = self.in_links[ivc.port]
            if credit and fifo_count and in_link is not None and not in_link.dead:
                for _ in range(fifo_count):
                    in_link.send_credit(cycle, ivc.vc)
        channel = self._channel_of(ivc)
        if channel is not None and channel.allocated_to == ivc.key:
            channel.release()
        ivc.reset_pipeline()
        return flits

    def _kill_output_channel(self, cycle: int, port: int, vc: int) -> List[Flit]:
        """Permanently fail one output channel, tearing down the wormhole
        that holds it.  Returns every flit destroyed in the process."""
        channel = self.outputs[port][vc]
        channel.dead = True
        lost: List[Flit] = [f for _, f in channel.replay_queue]
        channel.replay_queue.clear()
        lost.extend(channel.absorption_queue)
        channel.absorption_queue.clear()
        owner = channel.allocated_to
        if owner is not None:
            ivc = self.inputs[owner[0]][owner[1]]
            if ivc.state is VCState.ACTIVE and (ivc.out_port, ivc.out_vc) == (
                port,
                vc,
            ):
                lost.extend(self._flush_input_vc(cycle, ivc, credit=True))
                ivc.drain_until_head = True
                if self.casualty_hook is not None and ivc.last_head_packet_id >= 0:
                    self.casualty_hook(ivc.last_head_packet_id)
            channel.release()
        return lost

    def on_output_dead(self, cycle: int, port: int) -> List[Flit]:
        """The link leaving ``port`` died: kill every channel crossing it."""
        lost: List[Flit] = []
        for vc in range(self.config.num_vcs):
            lost.extend(self._kill_output_channel(cycle, port, vc))
        return lost

    def on_input_dead(self, cycle: int, port: int) -> List[Flit]:
        """The link feeding ``port`` died.

        Buffered flit runs that already include their tail are complete and
        still deliverable; anything after the last buffered tail is the
        prefix of a packet whose remaining flits can never arrive, so it is
        dropped.  A wormhole cut mid-packet leaves its downstream channel
        allocated forever — releasing it would let a fresh header splice
        into the dangling downstream segment — so the leak is kept and
        counted (``wormholes_orphaned``).
        """
        lost: List[Flit] = []
        for ivc in self.inputs[port]:
            dropped = ivc.buffer.drop_cut_suffix()
            lost.extend(dropped)
            if ivc.state is VCState.ACTIVE:
                if not any(f.is_tail for f in ivc.buffer):
                    self.stats.count("wormholes_orphaned")
                    if self.casualty_hook is not None and ivc.last_head_packet_id >= 0:
                        self.casualty_hook(ivc.last_head_packet_id)
            elif ivc.buffer.is_empty:
                ivc.reset_pipeline()
        return lost

    def on_vc_dead(self, cycle: int, port: int, vc: int) -> List[Flit]:
        """One input VC buffer died: its content is destroyed and future
        arrivals vanish (the upstream output channel dies with it)."""
        ivc = self.inputs[port][vc]
        ivc.dead = True
        was_active = ivc.state is VCState.ACTIVE
        flits = list(ivc.buffer)
        ivc.buffer.clear()
        if was_active:
            # Mid-wormhole: the downstream segment dangles.  The input VC
            # stays ACTIVE and keeps its output channel allocated — nothing
            # may splice a fresh header into the dangling segment — so the
            # leak is deliberate and counted.
            self.stats.count("wormholes_orphaned")
            if self.casualty_hook is not None and ivc.last_head_packet_id >= 0:
                self.casualty_hook(ivc.last_head_packet_id)
        else:
            ivc.reset_pipeline()
        return flits

    def on_router_dead(self, cycle: int) -> List[Flit]:
        """The whole router died: every buffer and channel goes with it."""
        self.dead = True
        lost: List[Flit] = []
        for port in range(self.config.num_ports):
            for vc in range(self.config.num_vcs):
                lost.extend(self._kill_output_channel(cycle, port, vc))
        for port_vcs in self.inputs:
            for ivc in port_vcs:
                ivc.dead = True
                lost.extend(self._flush_input_vc(cycle, ivc, credit=False))
        return lost

    # -- bookkeeping -------------------------------------------------------

    def _update_blocked_counters(self, occupied: List[InputVC]) -> None:
        for ivc in occupied:
            if ivc.sent_this_cycle:
                ivc.blocked_cycles = 0
                ivc.sent_this_cycle = False
            elif not ivc.buffer.is_empty:
                ivc.blocked_cycles += 1

    # -- introspection (stats / tests) ----------------------------------------

    @property
    def buffered_flits(self) -> int:
        return sum(
            ivc.buffer.total_flits for port_vcs in self.inputs for ivc in port_vcs
        )

    @property
    def retx_pending_flits(self) -> int:
        """Replay + absorption occupancy (live retransmission-buffer use)."""
        total = 0
        for port, channels in enumerate(self.outputs):
            if port == int(Direction.LOCAL):
                continue
            for channel in channels:
                total += len(channel.replay_queue) + len(channel.absorption_queue)
        return total

    @property
    def retx_occupancy(self) -> int:
        """Occupied retransmission-buffer slots (replay + absorption +
        barrel-shifter storage); the telemetry sampler's pressure numerator."""
        total = 0
        for port, channels in enumerate(self.outputs):
            if port == int(Direction.LOCAL):
                continue
            for channel in channels:
                total += channel.telemetry_occupancy
        return total

    @property
    def retx_capacity(self) -> int:
        ports = sum(
            1
            for port in range(self.config.num_ports)
            if port != int(Direction.LOCAL) and self.out_links[port] is not None
        )
        return ports * self.config.num_vcs * self.config.retx_buffer_depth

    @property
    def has_traffic(self) -> bool:
        # Hot on the activity-driven path (checked once per active router
        # per cycle); short-circuits instead of summing full occupancies.
        for port_vcs in self.inputs:
            for ivc in port_vcs:
                if not ivc.buffer.is_empty:
                    return True
        for channels in self.outputs:
            for channel in channels:
                if channel.has_pending_output:
                    return True
        return False

    def __repr__(self) -> str:
        return f"Router(node={self.node}, buffered={self.buffered_flits})"
