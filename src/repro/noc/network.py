"""Network assembly: routers, links, network interfaces and the cycle loop.

The :class:`Network` owns one :class:`NetworkInterface` per node and, when
the object model runs, one router per node, the mesh links between them
(one :class:`~repro.noc.link.Link` per direction per adjacent pair) and the
local injection/ejection links; a kernel-served network has none of those.
Its :meth:`Network.step` advances the system one cycle in a fixed order:

1. NIs process ejections delivered by the previous cycle,
2. scheduled events fire (E2E retransmission requests / ACKs, modelled as
   contention-free reverse-path messages with per-hop latency),
3. routers consume link deliveries (credits, NACKs, probes, flits),
4. NIs inject (subject to credits on the local link),
5. routers run their pipelines, pushing onto links for the next cycle,
6. utilization is sampled.

Because every channel is a fixed-latency delay line (1 cycle for planar
links; TSV links in a 3D stack may take longer), the order of routers
within a phase cannot change outcomes.

The object model's cycle loop polls: every phase visits every interface or
router, in ascending node order, every cycle.  It is the engine for every
config outside the kernel's domain and the oracle the kernel is compared
against (docs/KERNEL.md).  An idle router's visit stays cheap because its
occupancy index and pending-output flag answer "nothing to do" without a
scan (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import heapq
import warnings
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import SimulationConfig
from repro.core.schemes import DeliveryAction, destination_policy
from repro.faults.injector import FaultInjector
from repro.faults.intermittent import IntermittentLifecycle, _SiteState
from repro.faults.permanent import PermanentFault
from repro.noc.flit import Flit
from repro.noc.link import Link
from repro.noc.packet import Packet, PacketReassembler
from repro.noc.router import Router
from repro.noc.routing import (
    FaultAwareRouting,
    RoutingFunction,
    SourceRouting,
    check_fault_sites,
    routing_for_config,
)
from repro.noc.topology import MeshTopology, make_topology
from repro.stats.collectors import StatsCollector
from repro.telemetry.bus import TelemetryBus
from repro.types import Corruption, Direction, LinkProtection, RoutingAlgorithm

if TYPE_CHECKING:
    from repro.noc.kernel import BatchedKernel


class RunRecord:
    """One run's clock, packet outcomes and scheduled E2E reverse-path
    messages, shared by the network, its interfaces and its routers.  It
    holds only leaves (stats, bus), so nothing a :class:`Network` owns
    points back at it (docs/ARCHITECTURE.md, "Ownership")."""

    def __init__(self, stats: StatsCollector, telemetry: Optional[TelemetryBus]):
        self.stats = stats
        self.telemetry = telemetry
        self.cycle = 0
        self.delivered = 0
        self.lost = 0
        #: Packets destroyed by permanent faults, deduplicated so each is
        #: counted lost exactly once however many of its flits die.
        self.lost_packets: Set[int] = set()
        # Scheduled E2E ACKs ("e2e_release") and NACKs ("e2e_retransmit")
        # as (cycle, seq, kind, node, packet_id) data, not closures, so the
        # heap pickles with a checkpoint (docs/CHECKPOINTING.md).
        self.events: List[Tuple[int, int, str, int, int]] = []
        self._event_seq = 0

    def schedule(self, cycle: int, kind: str, node: int, packet_id: int) -> None:
        self._event_seq += 1
        heapq.heappush(self.events, (cycle, self._event_seq, kind, node, packet_id))

    def note_casualty(self, packet_id: int) -> None:
        """A permanent fault destroyed (part of) this packet, which can
        never complete: count it lost once, however many of its flits die."""
        if packet_id in self.lost_packets:
            return
        self.lost_packets.add(packet_id)
        self.stats.count("packets_lost")
        self.lost += 1
        if self.telemetry is not None:
            self.telemetry.publish(
                self.cycle, "packet_lost", packet=packet_id, reason="casualty"
            )


class NetworkInterface:
    """The PE-side endpoint: source queue, wormhole serialization onto the
    local link, destination reassembly and per-scheme delivery policy.
    It keeps its network's leaves; :meth:`inject` is handed the network."""

    def __init__(self, node: int, network: "Network"):
        self.node = node
        self.config = network.config.noc
        self.topology = network.topology
        self.stats = network.stats
        self.telemetry = network.telemetry
        self.payload_checker = network.payload_checker
        self.run_record = network.run_record
        #: The kernel's injection set (see ``Network._ni_tx_active``).
        self._tx_active = network._ni_tx_active
        #: Flits consumed by completed reassemblies (the telemetry sampler's
        #: ejection-rate numerator; mirrors the ``flits_ejected`` counter).
        self.flits_ejected = 0
        V = self.config.num_vcs
        self.pending: Deque[Packet] = deque()
        self._streams: List[Optional[List[Flit]]] = [None] * V
        #: Started packets with flits left to send, on either engine (the
        #: kernel streams from its ``nis_slot`` table instead of ``_streams``).
        self.open_streams = 0
        self._credits: List[int] = [self.config.vc_buffer_depth] * V
        self._next_seq: List[int] = [0] * V
        #: Flits pushed onto the injection link, on either engine.
        self.flits_sent = 0
        self._rr = 0
        self.reassembler = PacketReassembler()
        #: E2E source retransmission copies, held until the ACK returns.
        self.e2e_copies: Dict[int, Packet] = {}
        self.e2e_copy_high_water = 0
        self.inj_link: Optional[Link] = None
        self.ej_link: Optional[Link] = None
        #: Set when the local router permanently fails: the NI can neither
        #: inject nor receive (its local links die with the router).
        self.dead = False

    # -- source side -------------------------------------------------------

    def enqueue(self, packet: Packet, priority: bool = False) -> None:
        if self.dead:
            self.stats.count("packets_unroutable")
            self.run_record.note_casualty(packet.packet_id)
            return
        if priority:
            self.pending.appendleft(packet)
        else:
            self.pending.append(packet)
        # All packet arrivals funnel through here (fresh injections,
        # E2E retransmissions, misdelivery re-forwards), so this is the one
        # activation point the kernel's injection set needs.
        self._tx_active.add(self.node)

    def inject(self, cycle: int, network: "Network") -> None:
        if self.dead:
            return
        assert self.inj_link is not None
        for credit in self.inj_link.credits.pop_due(cycle):
            self._credits[credit.vc] += 1
        if network.degraded and self.pending:
            # Undeliverable-destination detection: refuse packets the
            # reconfigured tables cannot route rather than wedging a VC.
            while self.pending and not network.is_reachable(
                self.node, self.pending[0].dst
            ):
                packet = self.pending.popleft()
                self.stats.count("packets_unroutable")
                self.run_record.note_casualty(packet.packet_id)
        V = self.config.num_vcs
        # Continue an in-flight wormhole first (avoids starving packets that
        # already hold router resources), round-robin across VCs.
        for offset in range(V):
            vc = (self._rr + offset) % V
            stream = self._streams[vc]
            if stream and self._credits[vc] > 0:
                self._send_flit(cycle, vc, stream.pop(0))
                if not stream:
                    self._streams[vc] = None
                    self.open_streams -= 1
                self._rr = (vc + 1) % V
                return
        if not self.pending:
            return
        for vc in range(V):
            if self._streams[vc] is None and self._credits[vc] > 0:
                packet = self.pending.popleft()
                self.hold_copy(packet)
                flits = packet.make_flits()
                checker = self.payload_checker
                if checker is not None:
                    for flit in flits:
                        checker.encode_flit(flit)
                self._send_flit(cycle, vc, flits.pop(0))
                if flits:
                    self._streams[vc] = flits
                    self.open_streams += 1
                return

    def hold_copy(self, packet: Packet) -> None:
        """E2E: keep a starting packet's source copy until the destination's
        ACK returns (both engines call this)."""
        if self.config.link_protection is LinkProtection.E2E:
            self.e2e_copies[packet.packet_id] = packet
            held = len(self.e2e_copies)
            self.e2e_copy_high_water = max(self.e2e_copy_high_water, held)

    def _send_flit(self, cycle: int, vc: int, flit: Flit) -> None:
        assert self.inj_link is not None
        self._credits[vc] -= 1
        seq = self._next_seq[vc]
        self._next_seq[vc] += 1
        self.flits_sent += 1
        self.inj_link.send_flit(cycle, vc, seq, flit)
        self.stats.energy_event("local_link")

    def retransmit(self, packet_id: int) -> None:
        """E2E: the destination's retransmission request arrived."""
        packet = self.e2e_copies.get(packet_id)
        if packet is None:
            return  # already delivered/ACKed; stale request
        packet.retransmissions += 1
        self.enqueue(packet, priority=True)

    def release(self, packet_id: int) -> None:
        """E2E: the destination's ACK arrived; drop the source copy."""
        self.e2e_copies.pop(packet_id, None)

    def on_router_dead(self) -> None:
        """The local router died: tear down everything the NI holds."""
        self.dead = True
        note_casualty = self.run_record.note_casualty
        for packet in self.pending:
            self.stats.count("packets_unroutable")
            note_casualty(packet.packet_id)
        self.pending.clear()
        for vc, stream in enumerate(self._streams):
            if stream:
                # The already-injected prefix was flushed with the router;
                # the unsent remainder was never counted as inflow.
                note_casualty(stream[0].packet_id)
                self._streams[vc] = None
        self.open_streams = 0
        for pid in self.reassembler.incomplete_ids():
            dropped = self.reassembler.drop(pid)
            if dropped:
                self.stats.count("permanent_fault_flits_dropped", dropped)
            note_casualty(pid)

    @property
    def queued_packets(self) -> int:
        return len(self.pending) + self.open_streams

    # -- destination side ----------------------------------------------------

    def receive(self, cycle: int) -> None:
        assert self.ej_link is not None
        for transfer in self.ej_link.flits.pop_due(cycle):
            flit = transfer.flit
            corruption = transfer.corruption
            if corruption is not Corruption.NONE:
                scheme = self.config.link_protection
                checker = self.payload_checker
                if scheme in (LinkProtection.HBH, LinkProtection.NONE):
                    if corruption is Corruption.SINGLE:
                        self.stats.count("fec_corrections")
                    else:
                        if checker is not None:
                            checker.corrupt_payload(flit, corruption)
                        flit.corrupt(corruption)
                else:
                    if checker is not None:
                        checker.corrupt_payload(flit, corruption)
                    flit.corrupt(corruption)
            complete = self.reassembler.accept(flit, self.config.flits_per_packet)
            if complete is not None:
                self._handle_packet(cycle, complete)

    def _handle_packet(self, cycle: int, flits: List[Flit]) -> None:
        """Decide and record a completed packet: the one home of delivery,
        on both engines (the kernel hands it ``_FlitView``s)."""
        scheme = self.config.link_protection
        # Every completed reassembly consumes its flits, whatever the
        # delivery outcome; the sanitizer balances this against injections.
        self.stats.count("flits_ejected", len(flits))
        self.flits_ejected += len(flits)
        decision = destination_policy(scheme, self.node, flits)
        head = flits[0]
        action = decision.action

        if action in (DeliveryAction.DELIVER, DeliveryAction.DELIVER_CORRUPT):
            checker = self.payload_checker
            if checker is not None:
                for flit in flits:
                    # Skip flits whose corruption landed in header fields:
                    # the dst/src rewrite is the bit-accurate model there.
                    if flit.dst_error is Corruption.NONE or not flit.is_head:
                        ok = checker.verify_flit(flit)
                        self.stats.count("payload_ecc_checks")
                        if not ok:
                            self.stats.count("payload_ecc_mismatches")
            latency = cycle - head.injection_cycle
            self.stats.record_ejection(latency, head.hops)
            if action is DeliveryAction.DELIVER_CORRUPT:
                self.stats.count("packets_delivered_corrupt")
            self.run_record.delivered += 1
            if scheme is LinkProtection.E2E and head.src_error is not Corruption.MULTI:
                delay = self.topology.distance(self.node, head.src)
                self.run_record.schedule(
                    cycle + max(1, delay),
                    "e2e_release",
                    head.src,
                    head.packet_id,
                )
        elif action is DeliveryAction.REQUEST_RETRANSMISSION:
            assert decision.source is not None
            self.stats.count("e2e_retransmissions")
            delay = self.topology.distance(self.node, decision.source)
            self.run_record.schedule(
                cycle + max(1, delay),
                "e2e_retransmit",
                decision.source,
                head.packet_id,
            )
        elif action is DeliveryAction.FORWARD_TO_TRUE_DST:
            assert decision.destination is not None
            self.stats.count("packets_misrouted")
            self.stats.count("packets_reforwarded")
            onward = Packet(
                packet_id=head.packet_id,
                src=self.node,
                dst=decision.destination,
                num_flits=self.config.flits_per_packet,
                injection_cycle=head.injection_cycle,
                payload=head.payload,
            )
            self.enqueue(onward, priority=True)
        elif action is DeliveryAction.LOST:
            self.stats.count("packets_lost")
            self.run_record.lost += 1
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle,
                    "packet_lost",
                    self.node,
                    packet=head.packet_id,
                    reason="delivery_policy",
                )
        else:  # pragma: no cover - exhaustive enum
            raise AssertionError(f"unhandled delivery action {action}")


class Network:
    """The complete simulated system for one configuration."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        noc = config.noc
        self.topology: MeshTopology = make_topology(
            noc.topology, noc.shape, noc.link_latency
        )
        self.stats = StatsCollector()
        #: The shared telemetry bus, or None when telemetry is disabled —
        #: every publish site guards on that None, so a disabled run pays
        #: nothing beyond one attribute check per site.  Created before the
        #: routers and interfaces so their constructors can capture it.
        tcfg = config.telemetry
        self.telemetry: Optional[TelemetryBus] = (
            TelemetryBus(tcfg) if tcfg.enabled else None
        )
        #: Clock, delivery outcomes and E2E reverse-path events, shared
        #: with the interfaces and routers in place of the network itself.
        self.run_record = RunRecord(self.stats, self.telemetry)
        self.injector = FaultInjector(config.faults)
        self.injector.telemetry = self.telemetry
        #: The batched struct-of-arrays cycle kernel (``repro.noc.kernel``),
        #: or None when the object loop runs.  Built when the config sits
        #: inside the batchable domain, unless it asks for the object
        #: oracle (``backend="object"``); outside the domain the object
        #: model, which alone models logic/hard faults, runs
        #: (docs/KERNEL.md).  The kernel reads only config and topology:
        #: no router, no link, no routing function (it routes by the
        #: memoized route table).  Its module is imported only here, so
        #: ``import repro.api`` never compiles it.
        self.kernel: Optional[BatchedKernel] = None
        #: Where a kernel-served network stops: no site can wear out before.
        self._wear_horizon = float("inf")
        if config.backend == "batched":
            from repro.noc.kernel import build_kernel, kernel_supports, wear_out_horizon

            if kernel_supports(config) is None:
                check_fault_sites(config, self.topology)
                self.kernel = build_kernel(config, self.topology)
                self._wear_horizon = wear_out_horizon(config.faults.wear_out)
        #: What ``routing_fn`` returns; None on a kernel network until asked.
        self._routing_fn: Optional[RoutingFunction] = None
        if self.kernel is None:
            self._routing_fn = routing_for_config(config, self.topology)
        intermittent = config.faults.intermittent
        may_lose_components = config.faults.can_lose_components
        reroutes = (
            self.kernel.port_aware
            if self.kernel is not None
            else isinstance(self._routing_fn, (FaultAwareRouting, SourceRouting))
        )
        if may_lose_components and not reroutes:
            warnings.warn(
                "NOC013: hard faults (a permanent-fault schedule or "
                "wear-out escalation) are configured but "
                f"{noc.routing.value} routing cannot reroute around "
                "dead components; packets whose paths cross them will "
                "be dropped (use xy or ft_table routing for "
                "fault-aware rerouting)",
                stacklevel=2,
            )
        if (
            noc.is_torus
            and noc.routing is RoutingAlgorithm.XY
            and not noc.deadlock_recovery_enabled
            and max(noc.shape) >= 4
        ):
            # NOC008: the wrap links close cyclic channel dependencies that
            # dimension-ordered routing cannot break, and nothing here will
            # recover a deadlock once it forms.  `repro lint` reports the
            # same hazard statically (with the CDG witness cycle).  Rings of
            # 3 are exempt: every shortest path is a single hop, so no packet
            # ever chains two same-direction channels and the CDG is acyclic.
            warnings.warn(
                "NOC008: XY routing on a torus has cyclic channel "
                "dependencies across the wraparound links and "
                "deadlock recovery is disabled; enable "
                "deadlock_recovery_enabled or expect wedged wormholes "
                "(run `repro lint` for the witness cycle)",
                stacklevel=2,
            )
        self.payload_checker = None
        if config.payload_ecc_check:
            from repro.coding.payload_check import PayloadChecker

            self.payload_checker = PayloadChecker()

        #: The kernel's injection set: NIs that may have queued work.  Every
        #: ``enqueue`` adds its node and ``BatchedKernel._inject`` prunes the
        #: drained; the object loop polls every NI and never reads it.
        self._ni_tx_active: Set[int] = set()

        self.interfaces: List[NetworkInterface] = [
            NetworkInterface(node, self) for node in self.topology.nodes()
        ]
        #: Mesh links by ``(src_node, src_port)`` for fault application.
        self._link_map: Dict[Tuple[int, Direction], Link] = {}
        if self.kernel is not None:
            self.routers: Sequence[Router] = ()
            self.links: Sequence[Link] = ()
        else:
            self.routers = [
                Router(
                    node, noc, self.topology, self.routing_fn, self.injector,
                    self.stats, payload_checker=self.payload_checker,
                )
                for node in self.topology.nodes()
            ]
            bus = self.telemetry
            for router in self.routers:
                router.casualty_hook = self.run_record.note_casualty
                router.telemetry = bus
                if bus is not None and router.deadlock is not None:
                    router.deadlock.telemetry_hook = bus.publish
            self.links = self._wire_mesh() + self._wire_local()
        if self.telemetry is not None:
            self.telemetry.attach(self)

        self._send_history: Deque[int] = deque(
            [0] * noc.retx_buffer_depth, maxlen=noc.retx_buffer_depth
        )
        # Every VC buffer's depth and Router.retx_capacity, summed without
        # routers: one formula for both engines.
        topo, V = self.topology, noc.num_vcs
        links = sum(len(topo.connected_directions(n)) for n in topo.nodes())
        self._tx_capacity = topo.num_nodes * noc.num_ports * V * noc.vc_buffer_depth
        self._retx_capacity = links * V * noc.retx_buffer_depth

        # Permanent-fault lifecycle state.
        self._dead_links: Set[Tuple[int, Direction]] = set()
        self._dead_routers: Set[int] = set()
        #: True once any hard fault can occur (a schedule, or wear-out
        #: escalation): enables the NI-side reachability filter (zero
        #: overhead on fault-free platforms).
        self.degraded = may_lose_components
        #: The intermittent/wear-out lifecycle, or None without burst
        #: sites.  Built after wiring so it can hold the same Link objects
        #: as ``_link_map`` (the wear-out utilization gauge); advanced
        #: eagerly once per cycle at the top of :meth:`step`, ahead of
        #: either engine, from per-site RNG streams disjoint from the
        #: injector's shared transient stream.
        self.lifecycle: Optional[IntermittentLifecycle] = None
        if intermittent:
            lifecycle = IntermittentLifecycle(
                intermittent, config.faults.wear_out, config.faults.seed
            )
            lifecycle.stats = self.stats
            lifecycle.telemetry = self.telemetry
            if self.kernel is None:  # a kernel network has no Link to gauge
                for site in lifecycle.sites:
                    lifecycle.links[site.fault.key] = self._link_map[site.fault.key]
            self.injector.lifecycle = lifecycle
            self.lifecycle = lifecycle
        self._pending_faults: List[PermanentFault] = (
            config.faults.permanent.sorted_by_cycle()
        )
        self._fault_index = 0
        self._next_fault_cycle: Optional[int] = None
        self._advance_fault_cursor()
        if self._next_fault_cycle == 0:
            # Dead-on-arrival components: applied before any flit moves.
            self._apply_due_faults()

    # -- wiring ---------------------------------------------------------------

    def _wire_mesh(self) -> List[Link]:
        links: List[Link] = []
        for node in self.topology.nodes():
            for direction in self.topology.connected_directions(node):
                neighbor = self.topology.neighbor(node, direction)
                assert neighbor is not None
                link = Link(
                    node,
                    direction,
                    neighbor,
                    direction.opposite,
                    latency=self.topology.link_latency(node, direction),
                )
                links.append(link)
                self._link_map[(node, direction)] = link
                self.routers[node].attach_output_link(int(direction), link)
                self.routers[neighbor].attach_input_link(
                    int(direction.opposite), link
                )
        return links

    def _wire_local(self) -> List[Link]:
        local = Direction.LOCAL
        links: List[Link] = []
        for node in self.topology.nodes():
            inj = Link(node, local, node, local, is_local=True)
            ej = Link(node, local, node, local, is_local=True)
            links.extend((inj, ej))
            self.interfaces[node].inj_link = inj
            self.routers[node].attach_input_link(int(local), inj)
            self.routers[node].attach_output_link(int(local), ej)
            self.interfaces[node].ej_link = ej
        return links

    # -- event dispatch (contention-free reverse-path messages) ----------------

    def _run_due_events(self) -> None:
        record = self.run_record
        events = record.events
        while events and events[0][0] <= record.cycle:
            _, _, kind, node, packet_id = heapq.heappop(events)
            ni = self.interfaces[node]
            if kind == "e2e_release":
                ni.release(packet_id)
            else:
                ni.retransmit(packet_id)

    # -- permanent faults -------------------------------------------------------

    def _advance_lifecycle(self) -> None:
        """Advance every burst process by one cycle and escalate worn-out
        sites.  Runs at the top of :meth:`step` right after scheduled
        faults, ahead of either engine, and draws only from per-site
        streams, so the shared transient stream is untouched."""
        lifecycle = self.lifecycle
        assert lifecycle is not None
        if self.cycle >= self._wear_horizon:  # past max_cycles (kernel_supports)
            raise RuntimeError(f"cycle {self.cycle}: a burst site could wear out "
                               "here; run past max_cycles on backend='object'")
        for site in lifecycle.advance(self.cycle):
            self._escalate_site(site)

    def _escalate_site(self, site: "_SiteState") -> None:
        """Wear-out escalation: the site's accumulated stress crossed the
        threshold, so its link dies *now* — the same teardown, counters,
        reroute recomputation and telemetry as a scheduled
        :class:`PermanentFault` link death at this cycle."""
        fault = site.fault
        site.escalated = True
        if (
            fault.key in self._dead_links
            or fault.node in self._dead_routers
        ):
            # Already dead through another path (scheduled death, router
            # kill): nothing left to escalate.
            return
        lifecycle = self.lifecycle
        assert lifecycle is not None
        self.stats.count("wear_out_escalations")
        if self.telemetry is not None:
            self.telemetry.publish(
                self.cycle,
                "wear_out_escalation",
                fault.node,
                direction=fault.direction.name.lower(),
                strikes=site.strikes,
                stress=lifecycle.stress(site),
            )
        self._apply_fault(
            PermanentFault(
                kind="link",
                node=fault.node,
                direction=fault.direction,
                cycle=self.cycle,
            )
        )
        self._reconfigure_routing()

    def _advance_fault_cursor(self) -> None:
        if self._fault_index < len(self._pending_faults):
            self._next_fault_cycle = max(
                self._pending_faults[self._fault_index].cycle, 0
            )
        else:
            self._next_fault_cycle = None

    def _apply_due_faults(self) -> None:
        """Apply every fault scheduled at or before the current cycle, then
        reconfigure routing once.  Runs at the top of :meth:`step`, before
        the receive phase, and draws no randomness."""
        applied = False
        while (
            self._next_fault_cycle is not None
            and self._next_fault_cycle <= self.cycle
        ):
            fault = self._pending_faults[self._fault_index]
            self._fault_index += 1
            self._advance_fault_cursor()
            self._apply_fault(fault)
            applied = True
        if applied:
            self._reconfigure_routing()

    def _apply_fault(self, fault: PermanentFault) -> None:
        self.stats.count("permanent_faults_applied")
        if self.telemetry is not None:
            self.telemetry.publish(
                self.cycle,
                "permanent_fault",
                fault.node,
                kind=fault.kind,
                direction=(
                    fault.direction.name.lower() if fault.direction else None
                ),
                vc=fault.vc,
            )
        if fault.kind == "link":
            assert fault.direction is not None
            self._kill_link(fault.node, fault.direction)
        elif fault.kind == "router":
            self._kill_router(fault.node)
        else:
            assert fault.direction is not None and fault.vc is not None
            self._kill_vc(fault.node, fault.direction, fault.vc)

    def _account_lost_flits(self, lost: List[Flit]) -> None:
        if not lost:
            return
        self.stats.count("permanent_fault_flits_dropped", len(lost))
        note_casualty = self.run_record.note_casualty
        for flit in lost:
            note_casualty(flit.packet_id)

    def _kill_link(self, node: int, direction: Direction) -> None:
        key = (node, direction)
        if key in self._dead_links:
            return
        self._dead_links.add(key)
        link = self._link_map[key]
        lost: List[Flit] = [t.flit for t in link.flits.peek_pending()]
        link.kill()
        src_router = self.routers[link.src_node]
        dst_router = self.routers[link.dst_node]
        if not src_router.dead:
            lost.extend(src_router.on_output_dead(self.cycle, int(direction)))
        if not dst_router.dead:
            lost.extend(
                dst_router.on_input_dead(self.cycle, int(link.dst_port))
            )
        self._account_lost_flits(lost)

    def _kill_router(self, node: int) -> None:
        if node in self._dead_routers:
            return
        self._dead_routers.add(node)
        # Every mesh link touching the router dies with it (each tears down
        # the wormholes crossing it at the surviving endpoint) ...
        for direction in self.topology.connected_directions(node):
            self._kill_link(node, direction)
            neighbor = self.topology.neighbor(node, direction)
            if neighbor is not None:
                self._kill_link(neighbor, direction.opposite)
        # ... as do the local links and the NI behind them.
        ni = self.interfaces[node]
        lost: List[Flit] = []
        for local_link in (ni.inj_link, ni.ej_link):
            if local_link is not None:
                lost.extend(t.flit for t in local_link.flits.peek_pending())
                local_link.kill()
        lost.extend(self.routers[node].on_router_dead(self.cycle))
        ni.on_router_dead()
        self._account_lost_flits(lost)

    def _kill_vc(self, node: int, direction: Direction, vc: int) -> None:
        """Kill one VC buffer: the input VC fed by the link leaving
        ``node`` through ``direction``, together with the upstream output
        channel that targets it.  The link itself survives (its other VCs
        keep flowing) unless this was its last living VC."""
        lost: List[Flit] = []
        src_router = self.routers[node]
        if not src_router.dead:
            lost.extend(
                src_router._kill_output_channel(self.cycle, int(direction), vc)
            )
        neighbor = self.topology.neighbor(node, direction)
        if neighbor is not None and not self.routers[neighbor].dead:
            lost.extend(
                self.routers[neighbor].on_vc_dead(
                    self.cycle, int(direction.opposite), vc
                )
            )
        self._account_lost_flits(lost)
        if (node, direction) not in self._dead_links and all(
            channel.dead for channel in src_router.outputs[int(direction)]
        ):
            # Last VC gone: the channel is useless; kill the link so the
            # routing tables stop steering packets into it.
            self._kill_link(node, direction)

    @property
    def routing_fn(self) -> RoutingFunction:
        """The routing function ``routing_for_config`` chose, which every
        router shares; a FaultAwareRouting instance here is rebuilt on each
        permanent-fault event.  A kernel network builds it on first use."""
        if self._routing_fn is None:
            self._routing_fn = routing_for_config(self.config, self.topology)
        return self._routing_fn

    def _reconfigure_routing(self) -> None:
        """Rebuild fault-aware tables after a topology change and send
        every router's not-yet-allocated headers back to the RT stage."""
        fn = self.routing_fn
        if isinstance(fn, FaultAwareRouting):
            fn.rebuild(self._dead_links, self._dead_routers)
            self.stats.count("reroute_recomputations")
            if self.telemetry is not None:
                self.telemetry.publish(
                    self.cycle,
                    "reroute",
                    dead_links=len(self._dead_links),
                    dead_routers=len(self._dead_routers),
                )
        for router in self.routers:
            if not router.dead:
                router.reroute_waiting_heads()

    def is_reachable(self, src: int, dst: int) -> bool:
        """Whether the current routing can deliver ``src -> dst``."""
        fn = self.routing_fn
        if isinstance(fn, FaultAwareRouting):
            return fn.is_reachable(src, dst)
        return dst not in self._dead_routers and src not in self._dead_routers

    # -- the run record ----------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.run_record.cycle

    @property
    def delivered(self) -> int:
        return self.run_record.delivered

    @property
    def lost(self) -> int:
        return self.run_record.lost

    @property
    def completed(self) -> int:
        """Messages that reached a final outcome (delivered or lost)."""
        return self.run_record.delivered + self.run_record.lost

    # -- the cycle loop ---------------------------------------------------------

    def step(self) -> None:
        """Advance the whole system by one cycle: on the kernel when one
        was built, else on the object model, polling every interface and
        router in ascending node order (the phase order above)."""
        cycle = self.run_record.cycle
        next_fault = self._next_fault_cycle
        if next_fault is not None and next_fault <= cycle:
            self._apply_due_faults()
        if self.lifecycle is not None:
            self._advance_lifecycle()
        kernel = self.kernel
        if kernel is not None:
            kernel.step(self)
            return
        for ni in self.interfaces:
            ni.receive(cycle)
        self._run_due_events()
        for router in self.routers:
            router.receive(cycle)
        for ni in self.interfaces:
            ni.inject(cycle, self)
        sends = 0
        for router in self.routers:
            sends += router.compute(cycle)
        self._end_cycle(sends)

    def _end_cycle(self, sends: int) -> None:
        """Phase 6 of both engines: bookkeeping, then the clock."""
        self._send_history.append(sends)
        if self.config.collect_utilization:
            kernel = self.kernel
            if kernel is not None:
                tx_occupied, pending_out = kernel.total_buffered, kernel.rq_total
            else:
                tx_occupied = sum(r.buffered_flits for r in self.routers)
                pending_out = sum(r.retx_pending_flits for r in self.routers)
            # A retransmission-buffer slot is live for the replay window
            # after a send (the barrel shifter holds the flit until a NACK
            # can no longer arrive) plus any replay/absorption occupancy.
            retx_occupied = sum(self._send_history) + pending_out
            self.stats.record_utilization(
                tx_occupied,
                self._tx_capacity,
                min(retx_occupied, self._retx_capacity),
                self._retx_capacity,
            )
        tel = self.telemetry
        if tel is not None:
            tel.on_cycle_end(self)
        self.stats.cycles += 1
        self.run_record.cycle += 1

    def run_cycles(self, cycles: int) -> None:
        """Advance a fixed number of cycles (tests and scripted scenarios).
        A kernel network with wear-out set raises ``RuntimeError`` past
        ``max_cycles``, at the first cycle a burst site could wear out."""
        for _ in range(cycles):
            self.step()

    def finalize_stats(self) -> None:
        """Fold per-router controller/handshake counters into the collector.

        Idempotent; called once when a result is built.
        """
        if getattr(self, "_stats_finalized", False):
            return
        self._stats_finalized = True
        probes_sent = probes_discarded = 0
        masked = lost_signals = 0
        for router in self.routers:
            if router.deadlock is not None:
                probes_sent += router.deadlock.probes_sent
                probes_discarded += router.deadlock.probes_discarded
            masked += router.handshake.glitches_masked
            lost_signals += router.handshake.signals_lost
        if probes_sent:
            self.stats.count("probes_sent", probes_sent)
        if probes_discarded:
            self.stats.count("probes_discarded", probes_discarded)
        if masked:
            self.stats.count("handshake_glitches_masked", masked)
        if lost_signals:
            self.stats.count("handshake_signals_lost", lost_signals)

    @property
    def in_flight_flits(self) -> int:
        if self.kernel is not None:
            return self.kernel.in_flight_flits
        buffered = sum(r.buffered_flits for r in self.routers)
        on_links = sum(len(link.flits) for link in self.links)
        pending_out = sum(r.retx_pending_flits for r in self.routers)
        return buffered + on_links + pending_out

    # -- telemetry gauges: the engine's half of the sampler -----------------

    def link_traversals(self) -> List[int]:
        """Flits each mesh link has carried so far, in ``_wire_mesh``'s
        order (nodes ascending, then ``connected_directions``)."""
        if self.kernel is not None:
            return self.kernel.link_traversals()
        return [link.flit_traversals for link in self._link_map.values()]

    def router_gauges(self) -> List[Tuple[int, int, int]]:
        """Per node, ascending: buffered flits, occupied retransmission
        slots and retransmission capacity."""
        if self.kernel is not None:
            return self.kernel.router_gauges()
        return [
            (router.buffered_flits, router.retx_occupancy, router.retx_capacity)
            for router in self.routers
        ]

    def __repr__(self) -> str:
        shape = "x".join(str(d) for d in self.topology.shape)
        return (
            f"Network({shape}, "
            f"cycle={self.cycle}, delivered={self.delivered})"
        )
