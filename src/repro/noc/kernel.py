"""The batched struct-of-arrays cycle kernel (``backend="batched"``, the
default).

The object model in :mod:`repro.noc.router` spends most of a loaded cycle
on attribute lookups and small-method dispatch.  This module replays the
exact same pipeline — BW→RT→VA→SA→ST→LT, credits, wormhole streaming,
round-robin arbitration — over preallocated flat integer vectors,
visiting only routers that hold flits.  Checkpoints serialize those
vectors as typed int64 ``array('q')`` buffers; at runtime they are plain
flat lists, the fastest scalar-indexed container CPython has.  A
:class:`~repro.noc.network.Network` runs on one kernel instead of router
objects when :func:`kernel_supports` finds the config inside the
batchable domain (any mesh or torus, 2D or 3D, any per-axis link
latency; deterministic distributed routing, or the port-aware table
routing of a wear-out config; no faults, or transient link faults and
burst sites that cannot wear out, under any protection; no deadlock
recovery / payload ECC / invariant sanitizer) and the config does not
ask for ``backend="object"``.  Outside it the network falls back to the
object loop.  The kernel is built from config, topology and the routing
choice (its network constructs no router or link) and shares one
memoized :func:`route_table` per platform and process.  Link upsets get
a :class:`~repro.noc.kernel_faults.LinkFaultKernel`
(:func:`build_kernel`), whose stage methods add the per-hop error
handling, so this module's fault-free stages carry no fault branch.  The
kernel keeps flits; every completed packet goes to its
:class:`~repro.noc.network.NetworkInterface`, which decides and records
it on both engines.

Equivalence is structural, not approximate: every counter, energy tally,
latency sample, telemetry event and time-series sample is produced at the
same cycle with the same value as the object model — the argument is
written out in ``docs/KERNEL.md`` and enforced bit-for-bit by
``tests/noc/test_fast_path_equivalence.py``.  The arrays pickle with the
network, so checkpoint/resume (``docs/CHECKPOINTING.md``) works unchanged.
Array layout, token encoding and the per-phase dataflow are specified in
``docs/KERNEL.md``; keep that document in sync with any change here.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.noc.flit import Flit
from repro.noc.routing import (
    FaultAwareRouting,
    resolve_routing_function,
    substitutes_table_routing,
)
from repro.noc.topology import make_topology
from repro.types import Corruption, Direction, FaultSite, FlitType, RoutingAlgorithm

#: Port index of the local (NI-facing) port.
_LOCAL = int(Direction.LOCAL)
#: ``Direction`` per port index (mesh ports of every axis, and LOCAL).
_DIRECTIONS = tuple(Direction)
#: Opposite port per port index (N<->S, E<->W, UP<->DOWN), used for link
#: endpoints.
_OPP = tuple(int(d.opposite) for d in _DIRECTIONS)
#: Flit tokens pack ``(packet_slot << 20) | flit_seq``; 20 bits of sequence
#: bounds packets at ~1M flits, far beyond any configured flits_per_packet.
_SEQ_BITS = 20
_SEQ_MASK = (1 << _SEQ_BITS) - 1
#: Mirrors ``repro.noc.router.EJECTION_CREDITS`` (the NI sinks instantly).
_EJECTION_CREDITS = 1 << 30

#: Routing algorithms whose candidate sets are pure functions of
#: (router, destination) on a healthy topology — the kernel memoizes them.
_SUPPORTED_ROUTING = (
    RoutingAlgorithm.XY,
    RoutingAlgorithm.WEST_FIRST,
    RoutingAlgorithm.FULLY_ADAPTIVE,
)


def kernel_supports(config: Any) -> Optional[str]:
    """Why the batched kernel cannot run this config, or None if it can.

    The batchable domain is the fault-free pipeline on any mesh or torus
    (2D or 3D, any per-axis link latency) plus transient link faults and
    burst sites that cannot wear out, under HBH, E2E, FEC or NONE
    protection.  Everything else the object model does (logic-fault
    sites, link teardown, deadlock probing, bit-level payload checks, the
    per-cycle sanitizer) is control flow the flat arrays deliberately do
    not model.  ``Network`` falls back to the object loop when this
    returns a reason, so any config is safe to run.
    """
    faults = config.faults
    if any(rate for site, rate in faults.rates.items() if site is not FaultSite.LINK):
        return "transient fault rates at sites other than the link are nonzero"
    if faults.permanent:
        return "a permanent-fault schedule is configured"
    if wear_out_horizon(faults.wear_out) <= config.workload.max_cycles:
        return "an intermittent site can wear out into a link death within max_cycles"
    noc = config.noc
    if noc.routing not in _SUPPORTED_ROUTING:
        return f"routing {noc.routing.value!r} is outside the batched domain"
    if noc.deadlock_recovery_enabled:
        return "deadlock recovery probes are enabled"
    if config.payload_ecc_check:
        return "payload ECC checking models per-flit codewords"
    if config.invariant_checks:
        return "the invariant sanitizer audits object state"
    return None


def wear_out_horizon(wear: Any) -> float:
    """The first cycle a burst site's stress can reach the wear-out
    threshold (never without wear-out): a link carries at most one flit a
    cycle, so stress grows by at most strike_weight + traversal_weight."""
    if wear is None:
        return math.inf
    return wear.threshold / (wear.strike_weight + wear.traversal_weight)


def build_kernel(config: Any, topo: Any) -> "BatchedKernel":
    """An in-domain config's kernel; link upsets (a nonzero rate or a
    burst site) import ``kernel_faults``."""
    faults = config.faults
    if not (faults.rate(FaultSite.LINK) or faults.intermittent):
        return BatchedKernel(config, topo)
    from repro.noc.kernel_faults import LinkFaultKernel
    return LinkFaultKernel(config, topo)


#: Route tables by platform, a few per process (``route_table``).
_ROUTE_TABLES: Dict[Tuple[Any, ...], Tuple[Tuple[int, ...], ...]] = {}
_ROUTE_TABLES_KEPT = 16


def route_table(
    noc: Any, port_aware: bool = False
) -> Tuple[Tuple[int, ...], ...]:
    """Candidate ports of every ``(router, dst)``, flat at ``r*R + dst``;
    of every ``(router, in-port, dst)``, flat at ``(r*P + p)*R + dst``,
    under the port-aware routing a config that can lose components runs.

    One memo per platform and process, keyed on every field
    ``make_topology`` and ``routing_for_config`` read in the batched
    domain, where no component dies.  Only a miss builds a routing
    function: ``routing_for_config``'s choice, made afresh."""
    key = (noc.topology, noc.shape, noc.link_latency, noc.routing, port_aware)
    table = _ROUTE_TABLES.get(key)
    if table is None:
        if len(_ROUTE_TABLES) >= _ROUTE_TABLES_KEPT:
            del _ROUTE_TABLES[next(iter(_ROUTE_TABLES))]
        table = _ROUTE_TABLES[key] = _build_route_table(
            make_topology(noc.topology, noc.shape, noc.link_latency),
            noc.routing,
            port_aware,
        )
    return table


def _build_route_table(
    topo: Any, routing: Any, port_aware: bool
) -> Tuple[Tuple[int, ...], ...]:
    R, P = topo.num_nodes, topo.num_ports
    probe = Flit(0, 0, FlitType.HEAD, 0, 0)
    if port_aware:
        # The table routing routing_for_config swaps XY for.
        table_fn = FaultAwareRouting(topo)
        rows = [(r, _DIRECTIONS[p]) for r in range(R) for p in range(P)]

        def candidates(r: int, port: Direction) -> List[Direction]:
            return table_fn.candidates_from(topo, r, port, probe)
    else:
        routing_fn = resolve_routing_function(routing, topo)
        rows = [(r, _DIRECTIONS[_LOCAL]) for r in range(R)]

        def candidates(r: int, port: Direction) -> List[Direction]:
            return routing_fn.candidates(topo, r, probe)

    table = []
    for r, port in rows:
        valid = {_LOCAL, *map(int, topo.connected_directions(r))}
        for dst in range(R):
            probe.dst = dst
            table.append(tuple(int(d) for d in candidates(r, port) if int(d) in valid))
    _assert_routes_never_empty(table, topo, port_aware)
    return tuple(table)


def _assert_routes_never_empty(
    table: List[Tuple[int, ...]], topo: Any, port_aware: bool
) -> None:
    """On an intact topology a correctly addressed header never meets an
    empty route: every injection route is non-empty, and (port-aware) so
    is the route each hop hands to the next router.  Only a header whose
    destination an upset rewrote can meet one (``LinkFaultKernel``)."""
    R, P = topo.num_nodes, topo.num_ports
    if not port_aware:
        assert all(table), "a routing function left a route empty"
        return
    for r in range(R):
        for dst in range(R):
            assert table[(r * P + _LOCAL) * R + dst], (r, dst)
    for row in range(R * P):
        r = row // P
        for dst in range(R):
            for o in table[row * R + dst]:
                if o != _LOCAL:
                    nxt = topo.neighbor(r, _DIRECTIONS[o])
                    assert table[(nxt * P + _OPP[o]) * R + dst], (r, o, dst)


def _nearest(requesters: List[int], pointer: int) -> int:
    """Round robin (``RoundRobinArbiter.grant``): the requester nearest at
    or after ``pointer``, wrapping.  Every caller lists its requesters in
    ascending order, as it visits them (``occ`` is kept sorted)."""
    i = bisect_left(requesters, pointer)
    return requesters[i] if i < len(requesters) else requesters[0]


class _FlitView:
    """One flit as its NI sees it, rebuilt from its packet slot, so
    ``NetworkInterface._handle_packet`` and the scheme code that reads and
    writes these fields on a :class:`Flit` (``destination_policy``,
    ``apply_header_upset``, ``Flit.corrupt``) run unchanged on the kernel's
    state."""

    __slots__ = (
        "seq", "packet_id", "src", "dst", "true_dst", "dst_error",
        "src_error", "corruption", "injection_cycle", "hops",
    )

    #: No kernel config checks payloads (``kernel_supports``).
    payload = 0
    corrupt = Flit.corrupt

    def __init__(
        self,
        seq: int,
        packet_id: int,
        src: int,
        dst: int,
        injection_cycle: int,
        hops: int,
    ):
        self.seq = seq
        self.packet_id = packet_id
        self.src = src
        self.dst = dst
        self.true_dst = dst
        self.dst_error = Corruption.NONE
        self.src_error = Corruption.NONE
        self.corruption = Corruption.NONE
        self.injection_cycle = injection_cycle
        self.hops = hops


def _flush_energy(stats: Any, **counts: int) -> None:
    """Add a stage's energy tallies (zero ones add no key), as the object
    model's per-event ``energy_event`` calls would."""
    if stats.measuring:
        energy = stats.energy_events
        for name, n in counts.items():
            if n:
                energy[name] += n


class BatchedKernel:
    """Struct-of-arrays replay of the object model's cycle.

    All per-VC / per-channel / per-NI state lives in flat integer vectors
    (see ``docs/KERNEL.md`` for the full inventory; pickled as ``int64``
    arrays); the only structured Python state is the per-router sorted
    occupancy lists, the line keys and ejection wake sets, and the
    growable packet descriptor table.  ``step(network)`` advances one
    cycle in the same phase order as the object loop in ``Network.step``,
    one stage method per phase; the kernel keeps no reference to its
    network.
    """

    #: Replay-queue flits: ``kernel_faults`` only.
    rq_total = 0

    def __init__(self, config: Any, topo: Any):
        noc = config.noc
        #: The platform the shared route table is memoized for.
        self.noc = noc
        #: Routes keyed by in-port too: the table routing
        #: ``routing_for_config`` installs on a wear-out config.
        self.port_aware = substitutes_table_routing(config)
        R = topo.num_nodes
        P = noc.num_ports
        V = noc.num_vcs
        D = noc.vc_buffer_depth
        self.R, self.P, self.V, self.D = R, P, V, D
        self.retx_depth = noc.retx_buffer_depth
        # Pipeline gating, identical to Router.__init__: 3+ stages separate
        # RT from VA by a cycle; 4 stages separate VA from SA/ST too.
        self._va_delay = 1 if noc.pipeline_stages >= 3 else 0
        self._sa_delay = 1 if noc.pipeline_stages == 4 else 0

        # State tables: preallocated flat int vectors, one entry per
        # (router, port, vc, ...) coordinate.  At runtime they are plain
        # Python lists — CPython scalar list indexing is ~2.5x faster than
        # going through a buffer view, and the hot loop is pure scalar
        # access — while __getstate__ packs each one into an int64
        # array('q') so checkpoints carry compact typed buffers
        # (docs/KERNEL.md, "Checkpoint payload").
        new = self._new_array
        # -- input VC state, indexed r*P*V + p*V + v ------------------------
        new("buf", R * P * V * D, 0)  # flit-token rings
        new("bh", R * P * V, 0)  # ring head index
        new("bc", R * P * V, 0)  # ring occupancy
        new("st", R * P * V, 0)  # 0 idle / 1 waiting-VA / 2 active
        new("op", R * P * V, -1)  # granted output port
        new("ov", R * P * V, -1)  # granted output VC
        new("rtc", R * P * V, -1)  # cycle RT completed
        new("vac", R * P * V, -1)  # cycle VA granted
        new("varot", R * P * V, 0)  # VA input-choice rotation
        # -- per-router allocator state ------------------------------------
        new("va_arb", R * P * V, 0)  # VA output arbiter, by out-channel
        new("sa_in", R * P, 0)  # SA stage-1 arbiter, by in-port
        new("sa_out", R * P, 0)  # SA stage-2 arbiter, by out-port
        # -- output channel state, indexed r*P*V + o*V + v ------------------
        new("cred", R * P * V, 0)  # downstream credits
        new("alloc", R * P * V, -1)  # owning input VC (p*V+v) or -1
        new("nseq", R * P * V, 0)  # per-channel link sequence counter
        # -- NI state -------------------------------------------------------
        new("nic", R * V, D)  # injection-link credits per VC
        new("nis_slot", R * V, -1)  # streaming packet slot per VC
        new("nis_next", R * V, 0)  # next flit seq of that stream
        new("nirr", R, 0)  # stream round-robin pointer
        # -- per-router gauges ----------------------------------------------
        new("rbuf", R, 0)  # buffered flits (occupancy gauge)
        new("ln", R * P, 0)  # mesh-link flit traversals, by (src, port)
        # -- 1-cycle delay lines (cur = arriving now, next = in flight) -----
        new("rxt_cur", R * P, -1)  # flit token toward router in-port
        new("rxt_next", R * P, -1)
        new("rxv_cur", R * P, -1)  # its virtual channel
        new("rxv_next", R * P, -1)
        new("ejt_cur", R, -1)  # flit token toward the NI
        new("ejt_next", R, -1)
        new("crv_cur", R * P, -1)  # credit VC toward router out-port
        new("crv_next", R * P, -1)

        # Mesh credits: depth per neighbor-connected port, the effectively
        # infinite ejection credit on LOCAL (attach_output_link semantics).
        nb = [-1] * (R * P)
        cred = self.cred
        for r in range(R):
            base = r * P * V
            for v in range(V):
                cred[base + _LOCAL * V + v] = _EJECTION_CREDITS
            for d in topo.connected_directions(r):
                p = int(d)
                nb[r * P + p] = topo.neighbor(r, d)
                for v in range(V):
                    cred[base + p * V + v] = D
        self.nb = nb
        #: Mesh lines ``r*P + p`` in the object network's link order
        #: (``Network._wire_mesh``): the order of ``link_traversals``.
        self.mesh_lines = [
            r * P + int(d) for r in range(R) for d in topo.connected_directions(r)
        ]
        #: Every port but LOCAL, ascending (the object router's visit order).
        self.mesh_ports = tuple(p for p in range(P) if p != _LOCAL)
        self.rcap = [
            sum(1 for p in self.mesh_ports if nb[r * P + p] >= 0)
            * V
            * self.retx_depth
            for r in range(R)
        ]
        #: Cycles line ``r*P + p`` takes (router ``r``'s port ``p``, both
        #: ways); above 1 only on slow ports (3D TSVs).  A slow line's
        #: items wait in ``wheel``, by due cycle, until ``_end_cycle`` lands
        #: them in the ``*_cur`` lines (``DelayLine``).
        line_lat = [1] * (R * P)
        for r in range(R):
            for d in topo.connected_directions(r):
                line_lat[r * P + int(d)] = topo.link_latency(r, d)
        self.line_lat = line_lat
        self.has_slow = max(line_lat) > 1
        self.wheel: Dict[int, List[Tuple[Any, ...]]] = {}

        # Python-side state.
        #: Per-input-VC routing candidates (tuple of ports) while a head
        #: waits in the pipeline; indexed like the VC arrays.
        self.cands: List[Optional[Tuple[int, ...]]] = [None] * (R * P * V)
        #: Per-router sorted list of non-empty input VCs (p*V+v); drives
        #: every pipeline stage in the object model's scan order.
        self.occ: List[List[int]] = [[] for _ in range(R)]
        #: Routers holding at least one buffered flit.
        self.live: Set[int] = set()
        #: Line keys: the lines ``r*P + p`` written with a credit (``cl``)
        #: or a flit (``fl``), swapped with the lines, so the receive phase
        #: visits items, not ports.  Derived state (``_derive_line_keys``).
        self.cl_cur: List[int] = []
        self.cl_next: List[int] = []
        self.fl_cur: List[int] = []
        self.fl_next: List[int] = []
        #: Ejection wake sets: routers whose NI-facing line holds a flit.
        self.wn_cur: Set[int] = set()
        self.wn_next: Set[int] = set()
        # Growable packet descriptor table, slots recycled LIFO: what a
        # flit view needs of the packet (``_FlitView``).
        self.pk_dst: List[int] = []
        self.pk_inj: List[int] = []
        self.pk_nf: List[int] = []
        self.pk_hops: List[int] = []
        self.pk_id: List[int] = []
        self.pk_src: List[int] = []
        self.pk_free: List[int] = []
        self._bind_routes()
        #: Flits buffered in routers / in flight on delay lines; together
        #: these are ``Network.in_flight_flits``.
        self.total_buffered = 0
        self.line_flits = 0

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    #: Every state table, in checkpoint-payload order (docs/KERNEL.md).
    ARRAY_NAMES: Tuple[str, ...] = (
        "buf", "bh", "bc", "st", "op", "ov", "rtc", "vac", "varot",
        "va_arb", "sa_in", "sa_out", "cred", "alloc", "nseq",
        "nic", "nis_slot", "nis_next", "nirr",
        "rbuf", "ln",
        "rxt_cur", "rxt_next", "rxv_cur", "rxv_next",
        "ejt_cur", "ejt_next", "crv_cur", "crv_next",
    )

    #: The line-key lists, rebuilt from the lines on load, never pickled.
    LINE_KEYS: Tuple[str, ...] = ("cl_cur", "cl_next", "fl_cur", "fl_next")

    def _new_array(self, name: str, n: int, fill: int) -> None:
        assert name in self.ARRAY_NAMES
        setattr(self, name, [fill] * n)

    def __getstate__(self) -> Dict[str, Any]:
        # Pack each state table into a typed int64 buffer for the pickle
        # stream; it round-trips exactly and keeps checkpoints compact.
        state = dict(self.__dict__)
        del state["route_table"], state["rt_row"]
        for name in self.LINE_KEYS:
            del state[name]
        for name in self.ARRAY_NAMES:
            state[name] = array("q", state[name])
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in self.ARRAY_NAMES:
            state[name] = state[name].tolist()
        self.__dict__.update(state)
        self._bind_routes()
        self._derive_line_keys()

    def _derive_line_keys(self) -> None:
        """The line keys of the ``*_cur`` lines.  A checkpoint is taken
        between cycles, when every ``*_next`` line is empty."""
        lines = range(self.R * self.P)
        crv, rxt = self.crv_cur, self.rxt_cur
        self.cl_cur = [i for i in lines if crv[i] >= 0]
        self.fl_cur = [i for i in lines if rxt[i] >= 0]
        self.cl_next, self.fl_next = [], []

    def _bind_routes(self) -> None:
        """Bind the shared route table (a memo, so never checkpointed) and
        its row per input port ``r*P + p``: the router's, or under
        port-aware routing the in-port's own."""
        R, P = self.R, self.P
        self.route_table = route_table(self.noc, self.port_aware)
        self.rt_row = [(i if self.port_aware else i // P) * R for i in range(R * P)]

    # ------------------------------------------------------------------
    # packet descriptors
    # ------------------------------------------------------------------

    def _alloc_slot(self, packet: Any, ni: Any) -> int:
        """``packet``'s slot as ``ni`` starts it (``ni`` keeps any copy)."""
        ni.hold_copy(packet)
        tables = (
            self.pk_dst, self.pk_inj, self.pk_nf, self.pk_hops, self.pk_id,
            self.pk_src,
        )
        row = (
            packet.dst, packet.injection_cycle, packet.num_flits, 0,
            packet.packet_id, packet.src,
        )
        if not self.pk_free:  # every slot is taken: grow the table by one
            self.pk_free.append(len(self.pk_dst))
            for table in tables:
                table.append(0)
        slot = self.pk_free.pop()
        for table, value in zip(tables, row):
            table[slot] = value
        return slot

    def _flit_view(self, slot: int, seq: int) -> _FlitView:
        return _FlitView(
            seq, self.pk_id[slot], self.pk_src[slot], self.pk_dst[slot],
            self.pk_inj[slot], self.pk_hops[slot],
        )

    def _deliver(self, net: Any, node: int, cycle: int, slots: List[int]) -> None:
        """Hand a completed packet, given the slot of each of its flits, to
        its NI, which decides and records it (``_handle_packet``), then
        free the slots."""
        views = [self._flit_view(slot, seq) for seq, slot in enumerate(slots)]
        net.interfaces[node]._handle_packet(cycle, views)
        self.pk_free.extend(dict.fromkeys(slots))

    # ------------------------------------------------------------------
    # the cycle
    # ------------------------------------------------------------------

    def step(self, net: Any) -> None:
        """Advance ``net`` one cycle; phase order mirrors the object loop
        in ``Network.step``.  A subclass overrides the stages, never this
        sequence."""
        cycle = net.run_record.cycle
        # Phase 1: NIs consume ejections delivered by the previous cycle.
        self._eject(net, cycle)
        # Phase 2: E2E's ACKs and retransmission requests come due (an
        # FEC/NONE re-forward is enqueued at once, as the NI does).
        if net.run_record.events:
            net._run_due_events()
        # Phase 3: routers consume link deliveries.
        self._receive(net, cycle)
        # Phase 4: NIs inject.
        self._inject(net)
        # Phase 5: router pipelines; phase 6: bookkeeping and the clock.
        self._end_cycle(net, self._compute(net, cycle))

    def _eject(self, net: Any, cycle: int) -> None:
        """Phase 1: a packet completes as its tail arrives (flits reach the
        NI in order on healthy links)."""
        wn = self.wn_cur
        if not wn:
            return
        ejt = self.ejt_cur
        pk_nf = self.pk_nf
        for r in sorted(wn):  # ascending node order, like the object loop
            token = ejt[r]
            ejt[r] = -1
            slot = token >> _SEQ_BITS
            nf = pk_nf[slot]
            if (token & _SEQ_MASK) == nf - 1:
                self._deliver(net, r, cycle, [slot] * nf)
        self.line_flits -= len(wn)
        wn.clear()

    def _receive(self, net: Any, cycle: int) -> None:
        """Phase 3: routers consume link deliveries, the credit lines then
        the flit lines this cycle brought (the line keys).  Fault-free,
        neither needs the object model's order (router, then port): a
        credit is an addition, a flit lands in its own input VC (one flit
        per line a cycle) and ``occ`` stays sorted, and nothing here draws
        a random number or publishes an event."""
        V = self.V
        cl = self.cl_cur
        if cl:
            crv, cred = self.crv_cur, self.cred
            for i in cl:
                cred[i * V + crv[i]] += 1
                crv[i] = -1
            cl.clear()
        fl = self.fl_cur
        if not fl:
            return
        P, D = self.P, self.D
        PV = P * V
        buf, bh, bc = self.buf, self.bh, self.bc
        rxt, rxv = self.rxt_cur, self.rxv_cur
        occ, rbuf, live = self.occ, self.rbuf, self.live
        for i in fl:
            token = rxt[i]
            rxt[i] = -1
            idx = i * V + rxv[i]
            rxv[i] = -1
            n = bc[idx]
            buf[idx * D + (bh[idx] + n) % D] = token
            r = i // P
            if n == 0:
                insort(occ[r], idx - r * PV)
            bc[idx] = n + 1
            rbuf[r] += 1
            live.add(r)
        # Every accepted flit moved from a delay line into a buffer.
        n_bufw = len(fl)
        fl.clear()
        self.total_buffered += n_bufw
        self.line_flits -= n_bufw
        _flush_energy(net.stats, buffer_write=n_bufw)

    def _compute(self, net: Any, cycle: int) -> int:
        """Phase 5: router pipelines, ascending node order.  Cross-router
        effects travel only on the delay lines, so within-phase order
        cannot change outcomes — but telemetry event order can, hence the
        same sorted order as the object loop.  Returns the link sends."""
        live = self.live
        if not live:
            return 0
        tel = net.telemetry
        R, P, V, D = self.R, self.P, self.V, self.D
        PV = P * V
        buf, bh, bc = self.buf, self.bh, self.bc
        st, op, ov = self.st, self.op, self.ov
        rtc, vac = self.rtc, self.vac
        cred, alloc, nseq = self.cred, self.alloc, self.nseq
        cands = self.cands
        pk_dst, pk_nf, pk_hops = self.pk_dst, self.pk_nf, self.pk_hops
        nb, ln, nic, rbuf = self.nb, self.ln, self.nic, self.rbuf
        route_table, rt_row = self.route_table, self.rt_row
        rxt_next, rxv_next = self.rxt_next, self.rxv_next
        crv_next, ejt_next = self.crv_next, self.ejt_next
        cl_next, fl_next, wn_next = self.cl_next, self.fl_next, self.wn_next
        va_gate = cycle - self._va_delay
        sa_gate = cycle - self._sa_delay
        # Flit-conservation gauges, kept in locals for the hot loop and
        # written back before anything (the sampler) can observe them.
        tb = self.total_buffered
        lf = self.line_flits
        n_local = n_rt = n_vagrant = n_st = n_credit = n_mesh = 0
        sends = 0
        for r in sorted(live):
            rbase = r * PV
            occ_r = self.occ[r]

            # RT: route the head flit of every idle non-empty VC.
            for pv in occ_r:
                idx = rbase + pv
                if st[idx] != 0:
                    continue
                token = buf[idx * D + bh[idx]]
                if token & _SEQ_MASK:
                    continue  # body flit; RT waits for a header
                cands[idx] = route_table[rt_row[idx // V] + pk_dst[token >> _SEQ_BITS]]
                st[idx] = 1
                rtc[idx] = cycle
                n_rt += 1

            # VA: separable two-stage allocation (VCAllocator.allocate).
            va_requests: List[int] = []
            for pv in occ_r:
                idx = rbase + pv
                if st[idx] == 1 and rtc[idx] <= va_gate:
                    va_requests.append(pv)
            if va_requests:
                n_vagrant += len(
                    self._allocate_vcs(r, rbase, va_requests, cycle, tel)
                )

            # SA: input stage (RR over VCs per in-port) then output stage
            # (RR over in-ports per out-port) — SwitchAllocator.
            bids: List[int] = []
            for pv in occ_r:
                idx = rbase + pv
                if (
                    st[idx] == 2
                    and vac[idx] <= sa_gate
                    and cred[rbase + op[idx] * V + ov[idx]] > 0
                ):
                    bids.append(pv)
            if bids:
                for o, wp, w in self._allocate_switch(r, rbase, bids):
                    # ST/LT for the winning input VC.
                    pv = wp * V + w
                    idx = rbase + pv
                    h = bh[idx]
                    token = buf[idx * D + h]
                    bh[idx] = (h + 1) % D
                    n = bc[idx] - 1
                    bc[idx] = n
                    if n == 0:
                        occ_r.remove(pv)
                    rbuf[r] -= 1
                    tb -= 1
                    n_st += 1
                    # Upstream credit for the freed buffer slot.
                    if wp == _LOCAL:
                        # NI credits skip the delay line: injection happens
                        # before compute, so a +1 here is first observable
                        # next cycle — 1-cycle latency.
                        nic[r * V + w] += 1
                    else:
                        line = nb[r * P + wp] * P + _OPP[wp]
                        crv_next[line] = w
                        cl_next.append(line)
                    n_credit += 1
                    out_vc = ov[idx]
                    cidx = rbase + o * V + out_vc
                    nseq[cidx] += 1
                    cred[cidx] -= 1
                    fseq = token & _SEQ_MASK
                    slot = token >> _SEQ_BITS
                    if o == _LOCAL:
                        n_local += 1
                        ejt_next[r] = token
                        wn_next.add(r)
                    else:
                        if fseq == 0:
                            pk_hops[slot] += 1
                        ln[r * P + o] += 1
                        n_mesh += 1
                        di = nb[r * P + o] * P + _OPP[o]
                        rxt_next[di] = token
                        rxv_next[di] = out_vc
                        fl_next.append(di)
                    lf += 1
                    sends += 1
                    if fseq == pk_nf[slot] - 1:
                        # Tail: release the channel, reset the pipeline.
                        alloc[cidx] = -1
                        self._reset_pipeline(idx)
            if rbuf[r] == 0:
                live.discard(r)

        # Publish the gauges before anything downstream (the utilization
        # recorder, the telemetry sampler) can read them off the kernel.
        self.total_buffered = tb
        self.line_flits = lf
        _flush_energy(
            net.stats, local_link=n_local, rt_op=n_rt, va_grant=n_vagrant,
            buffer_read=n_st, sa_grant=n_st, xbar=n_st, credit=n_credit,
            link=n_mesh, retx_write=n_mesh,
        )
        return sends

    def _allocate_vcs(
        self, r: int, rbase: int, requests: List[int], cycle: int, tel: Any
    ) -> List[Tuple[int, int]]:
        """VA at router ``r``: separable two-stage allocation
        (``VCAllocator.allocate``) for its requesting input VCs ``p*V+v``.
        Applies the grants and returns them as ``(input VC, out-channel)``."""
        V = self.V
        PV = self.P * V
        cands, alloc, varot, va_arb = self.cands, self.alloc, self.varot, self.va_arb
        # Stage 1: each requester picks one free output channel by its
        # private rotation over the usable set; the free set is a snapshot
        # (grants apply after stage 2).
        contested: Dict[int, List[int]] = {}
        for pv in requests:
            idx = rbase + pv
            usable = [
                p_ * V + v_
                for p_ in cands[idx]
                for v_ in range(V)
                if alloc[rbase + p_ * V + v_] < 0
            ]
            if not usable:
                continue  # rotation not advanced, as the object model
            rot = varot[idx]
            varot[idx] = rot + 1
            contested.setdefault(usable[rot % len(usable)], []).append(pv)
        # Stage 2: one round-robin arbiter per output channel.
        grants: List[Tuple[int, int]] = []
        for oc, reqs in contested.items():
            aidx = rbase + oc
            winner = reqs[0] if len(reqs) == 1 else _nearest(reqs, va_arb[aidx])
            va_arb[aidx] = (winner + 1) % PV
            grants.append((winner, oc))
        failed = len(requests) - len(grants)
        if failed and tel is not None:
            tel.publish(cycle, "vc_alloc_fail", r, count=failed)
        op, ov, st, vac = self.op, self.ov, self.st, self.vac
        for pv, oc in grants:
            idx = rbase + pv
            op[idx] = oc // V
            ov[idx] = oc % V
            st[idx] = 2
            vac[idx] = cycle
            alloc[rbase + oc] = pv
        return grants

    def _allocate_switch(
        self, r: int, rbase: int, bids: List[int]
    ) -> List[Tuple[int, int, int]]:
        """SA at router ``r``: an input stage (round robin over VCs per
        in-port) then an output stage (round robin over in-ports per
        out-port), as ``SwitchAllocator``.  Returns the ``(out-port,
        in-port, in-VC)`` winners in grant order; the caller's ST reads
        nothing the arbitration of a later out-port does."""
        P, V = self.P, self.V
        op, sa_in, sa_out = self.op, self.sa_in, self.sa_out
        by_in: Dict[int, List[int]] = {}
        for pv in bids:
            by_in.setdefault(pv // V, []).append(pv % V)
        stage1: Dict[int, int] = {}
        for p_, vcs in by_in.items():
            aidx = r * P + p_
            w = vcs[0] if len(vcs) == 1 else _nearest(vcs, sa_in[aidx])
            sa_in[aidx] = (w + 1) % V
            stage1[p_] = w
        by_out: Dict[int, List[int]] = {}
        for p_, w in stage1.items():
            by_out.setdefault(op[rbase + p_ * V + w], []).append(p_)
        winners: List[Tuple[int, int, int]] = []
        for o, ports in by_out.items():
            aidx = r * P + o
            wp = ports[0] if len(ports) == 1 else _nearest(ports, sa_out[aidx])
            sa_out[aidx] = (wp + 1) % P
            winners.append((o, wp, stage1[wp]))
        return winners

    def _inject(self, net: Any) -> None:
        """Phase 4, ``NetworkInterface.inject``: continue a stream, else
        start one packet."""
        ni_tx = net._ni_tx_active
        if not ni_tx:
            return
        P, V, pk_nf, nirr = self.P, self.V, self.pk_nf, self.nirr
        nic, nis_slot, nis_next = self.nic, self.nis_slot, self.nis_next
        rxt_next, rxv_next, fl_next = self.rxt_next, self.rxv_next, self.fl_next
        pushed = 0
        drained: List[int] = []
        nodes = sorted(ni_tx)
        # NetworkInterface.inject's `degraded` reachability filter has
        # nothing to refuse here: no component dies in the domain, and
        # every injection route is non-empty (_assert_routes_never_empty).
        for node in nodes:
            ni = net.interfaces[node]
            nbase = node * V
            sent = False
            rr = nirr[node]
            for offset in range(V):
                vc = (rr + offset) % V
                si = nbase + vc
                slot = nis_slot[si]
                if slot >= 0 and nic[si] > 0:
                    seq = nis_next[si]
                    if seq + 1 >= pk_nf[slot]:
                        nis_slot[si] = -1
                        ni.open_streams -= 1
                    else:
                        nis_next[si] = seq + 1
                    nic[si] -= 1
                    ni.flits_sent += 1
                    i = node * P + _LOCAL
                    rxt_next[i] = (slot << _SEQ_BITS) | seq
                    rxv_next[i] = vc
                    fl_next.append(i)
                    pushed += 1
                    nirr[node] = (vc + 1) % V
                    sent = True
                    break
            if not sent and ni.pending:
                for vc in range(V):
                    si = nbase + vc
                    if nis_slot[si] < 0 and nic[si] > 0:
                        packet = ni.pending.popleft()
                        slot = self._alloc_slot(packet, ni)
                        if pk_nf[slot] > 1:
                            nis_slot[si] = slot
                            nis_next[si] = 1
                            ni.open_streams += 1
                        nic[si] -= 1
                        ni.flits_sent += 1
                        i = node * P + _LOCAL
                        rxt_next[i] = slot << _SEQ_BITS
                        rxv_next[i] = vc
                        fl_next.append(i)
                        pushed += 1
                        break
            if not ni.queued_packets:
                drained.append(node)
        if drained:
            ni_tx.difference_update(drained)
        self.line_flits += pushed
        _flush_energy(net.stats, local_link=pushed)

    def _reset_pipeline(self, idx: int) -> None:
        self.st[idx] = 0
        self.op[idx] = self.ov[idx] = -1
        self.rtc[idx] = self.vac[idx] = -1
        self.cands[idx] = None

    def _end_cycle(self, net: Any, sends: int) -> None:
        """Phase 6: ``Network._end_cycle``, then the swaps that deliver
        this cycle's sends next cycle (drained ``*_cur`` sides are empty).
        A slow port's items wait in the wheel instead: each lands in the
        ``*_cur`` lines on its due cycle, as ``DelayLine.pop_due``."""
        cycle = net.run_record.cycle
        net._end_cycle(sends)
        if self.has_slow:
            self._hold_slow(cycle)
            self._swap_lines()
            self._land_due(cycle + 1)
        else:
            self._swap_lines()

    def _swap_lines(self) -> None:
        self.rxt_cur, self.rxt_next = self.rxt_next, self.rxt_cur
        self.rxv_cur, self.rxv_next = self.rxv_next, self.rxv_cur
        self.ejt_cur, self.ejt_next = self.ejt_next, self.ejt_cur
        self.crv_cur, self.crv_next = self.crv_next, self.crv_cur
        self.cl_cur, self.cl_next = self.cl_next, self.cl_cur
        self.fl_cur, self.fl_next = self.fl_next, self.fl_cur
        self.wn_cur, self.wn_next = self.wn_next, self.wn_cur

    def _next_keys(self) -> Tuple[List[int], ...]:
        """The line-key lists of the ``*_next`` side."""
        return self.cl_next, self.fl_next

    def _hold_slow(self, cycle: int) -> None:
        """Move the items this cycle wrote on slow lines into the wheel at
        ``cycle + latency`` and drop their keys: the keys name every line
        written, so only they are looked at."""
        lat = self.line_lat
        keys = self._next_keys()
        slow = {i for lines in keys for i in lines if lat[i] > 1}
        if not slow:
            return
        for lines in keys:
            lines[:] = [i for i in lines if lat[i] == 1]
        wheel = self.wheel
        for i in sorted(slow):
            wheel.setdefault(cycle + lat[i], []).append(self._take_line(i))

    def _land_due(self, cycle: int) -> None:
        """Land the wheel's items due at ``cycle``, with their keys."""
        due = self.wheel.pop(cycle, None)
        if due:
            for item in due:
                self._put_line(item)

    def _take_line(self, i: int) -> Tuple[Any, ...]:
        """Line ``i``'s items on the ``*_next`` side as ``(i, flit token,
        its VC, credit VC)`` (−1 where absent), cleared there."""
        item = (i, self.rxt_next[i], self.rxv_next[i], self.crv_next[i])
        self.rxt_next[i] = self.rxv_next[i] = self.crv_next[i] = -1
        return item

    def _put_line(self, item: Tuple[Any, ...]) -> None:
        """Write a ``_take_line`` item to the ``*_cur`` side and key what
        it carries."""
        i, token, vc, credit = item[:4]
        if token >= 0:
            self.rxt_cur[i] = token
            self.rxv_cur[i] = vc
            self.fl_cur.append(i)
        if credit >= 0:
            self.crv_cur[i] = credit
            self.cl_cur.append(i)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def in_flight_flits(self) -> int:
        return self.total_buffered + self.line_flits

    def mesh_channels(self, r: int) -> List[int]:
        """Router ``r``'s output channels on mesh ports, in port order."""
        V = self.V
        base = r * self.P * V
        return [base + p * V + v for p in self.mesh_ports for v in range(V)]

    def retx_occupancy(self, r: int) -> int:
        """Ring slots in use at router ``r``: min(flits sent, depth) each."""
        nseq, depth = self.nseq, self.retx_depth
        return sum(min(nseq[c], depth) for c in self.mesh_channels(r))

    def link_traversals(self) -> List[int]:
        """Flits each mesh link has carried, in ``mesh_lines`` order."""
        ln = self.ln
        return [ln[i] for i in self.mesh_lines]

    def router_gauges(self) -> List[Tuple[int, int, int]]:
        """Per router: buffered flits, ring slots in use, ring capacity."""
        rbuf, rcap = self.rbuf, self.rcap
        return [(rbuf[r], self.retx_occupancy(r), rcap[r]) for r in range(self.R)]

    def __repr__(self) -> str:
        return (
            f"BatchedKernel({self.R} routers, buffered="
            f"{self.total_buffered}, lines={self.line_flits})"
        )
