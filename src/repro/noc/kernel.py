"""The batched struct-of-arrays cycle kernel (``backend="batched"``).

The object model in :mod:`repro.noc.router` spends most of a loaded cycle
on attribute lookups and small-method dispatch.  This module replays the
exact same fault-free pipeline — BW→RT→VA→SA→ST→LT, credits, wormhole
streaming, round-robin arbitration — over preallocated flat integer
vectors, visiting only routers that hold flits.  Checkpoints serialize
those vectors as typed int64 ``array('q')`` buffers; at runtime they are
plain flat lists, the fastest scalar-indexed container CPython has.  A
:class:`~repro.noc.network.Network` runs on one :class:`BatchedKernel`
instead of router objects when

* ``SimulationConfig.backend == "batched"``, and
* :func:`kernel_supports` finds the configuration inside the batchable
  domain (fault-free, HBH/NONE protection, deterministic distributed
  routing, no deadlock recovery / payload ECC / invariant sanitizer).

Outside that domain the network silently falls back to the object loop,
so fault experiments keep their bit-accurate model while fault-free
baselines and warm-up sweeps run an order of magnitude faster.  The kernel
is built from config + topology (its network constructs no router or link)
and shares one memoized :func:`route_table` per platform and process.

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

from array import array
from bisect import insort
from functools import lru_cache
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.noc.flit import Flit
from repro.noc.link import link_id
from repro.noc.routing import resolve_routing_function
from repro.noc.topology import make_topology
from repro.types import FlitType, LinkProtection, RoutingAlgorithm

#: Port index of the local (NI-facing) port; matches ``Direction.LOCAL``.
_LOCAL = 4
#: Opposite port per port index (N<->S, E<->W), used for link endpoints.
_OPP = (2, 3, 0, 1, 4)
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

    The batchable domain is the fault-free fast path: everything the object
    model does outside it (fault injection, NACK rollback, E2E reverse
    traffic, deadlock probing, table rerouting, bit-level payload checks,
    the per-cycle sanitizer) is event-driven control flow that the flat
    arrays deliberately do not model.  ``Network`` falls back to the object
    loop when this returns a reason, so ``backend="batched"`` is always
    safe to request.
    """
    noc = config.noc
    if noc.ndim != 2:
        return "the batched kernel models 2D meshes only"
    if noc.max_link_latency != 1:
        return "multi-cycle link latencies are outside the batched domain"
    if any(config.faults.rates.values()):
        return "transient fault rates are nonzero"
    if config.faults.permanent:
        return "a permanent-fault schedule is configured"
    if config.faults.intermittent:
        return "an intermittent/wear-out fault lifecycle is configured"
    if noc.link_protection is LinkProtection.E2E:
        return "end-to-end protection schedules reverse-path events"
    if noc.routing not in _SUPPORTED_ROUTING:
        return f"routing {noc.routing.value!r} is outside the batched domain"
    if noc.deadlock_recovery_enabled:
        return "deadlock recovery probes are enabled"
    if config.payload_ecc_check:
        return "payload ECC checking models per-flit codewords"
    if config.invariant_checks:
        return "the invariant sanitizer audits object state"
    return None


def route_table(noc: Any) -> Tuple[Tuple[int, ...], ...]:
    """Candidate ports of every ``(router, dst)``, flat at ``r*R + dst``."""
    return _route_table(noc.topology, noc.shape, noc.link_latency, noc.routing)


@lru_cache(maxsize=16)
def _route_table(
    topology: str, shape: Tuple[int, ...], link_latency: Any, routing: Any
) -> Tuple[Tuple[int, ...], ...]:
    # Keyed on every field make_topology and routing_for_config read in the
    # batched domain, where no fault site exists and the latter reduces to
    # resolve_routing_function: pure routing on a topology that never dies.
    topo = make_topology(topology, shape, link_latency)
    routing_fn = resolve_routing_function(routing, topo)
    probe = Flit(0, 0, FlitType.HEAD, 0, 0)
    table = []
    for r in range(topo.num_nodes):
        valid = {_LOCAL, *map(int, topo.connected_directions(r))}
        for dst in range(topo.num_nodes):
            probe.dst = dst
            cands = routing_fn.candidates(topo, r, probe)
            table.append(tuple(int(d) for d in cands if int(d) in valid))
    return tuple(table)


class KernelSampler:
    """Telemetry sampler over kernel arrays.

    Drop-in replacement for ``repro.telemetry.bus._NetworkSampler``: emits
    the same series, for the same components, in the same record order,
    with the same values — so NDJSON exports are byte-identical across
    backends (the bus records the global series after either sampler).
    Selected by ``TelemetryBus.attach`` when the network carries a kernel.
    """

    def __init__(self, kernel: "BatchedKernel", topo: Any):
        self.kernel = kernel
        # Same enumeration order as _NetworkSampler: the mesh links in the
        # object network's wiring order (Network._wire_mesh).
        self._links: List[Tuple[int, str]] = [
            (node * kernel.P + int(d), link_id(node, d))
            for node in topo.nodes()
            for d in topo.connected_directions(node)
        ]
        self._last_traversals = [0] * len(self._links)
        self._last_sent = [0] * kernel.R
        self._last_ejected = [0] * kernel.R

    def sample(self, _net: Any, record: Any, cycle: int, interval: float) -> None:
        k = self.kernel
        ln = k.ln
        last_t = self._last_traversals
        for i, (li, tid) in enumerate(self._links):
            total = ln[li]
            record("link_utilization", tid, cycle, (total - last_t[i]) / interval)
            last_t[i] = total
        P, V = k.P, k.V
        depth = k.retx_depth
        nseq = k.nseq
        rcap = k.rcap
        for r in range(k.R):
            node = str(r)
            record("vc_occupancy", node, cycle, float(k.rbuf[r]))
            cap = rcap[r]
            if cap:
                # Barrel-shifter occupancy: min(flits ever sent, depth) per
                # mesh output channel (nothing replays in the fault-free
                # domain, so the retransmission ring only ever fills).
                occupied = 0
                base = r * P * V
                for pv in range(4 * V):
                    s = nseq[base + pv]
                    occupied += s if s < depth else depth
                record("retx_pressure", node, cycle, occupied / cap)
            else:  # pragma: no cover - every mesh router has links
                record("retx_pressure", node, cycle, 0.0)
        last_s = self._last_sent
        last_e = self._last_ejected
        for r in range(k.R):
            node = str(r)
            sent = k.nsent[r]
            record("injection_rate", node, cycle, (sent - last_s[r]) / interval)
            last_s[r] = sent
            ejected = k.nej[r]
            record("ejection_rate", node, cycle, (ejected - last_e[r]) / interval)
            last_e[r] = ejected


class BatchedKernel:
    """Struct-of-arrays replay of the object model's fault-free cycle.

    All per-VC / per-channel / per-NI state lives in flat integer vectors
    (see ``docs/KERNEL.md`` for the full inventory; pickled as ``int64``
    arrays); the only structured Python state is the per-router sorted
    occupancy lists, the wake sets, and the growable packet descriptor
    table.  ``step(network)`` advances one cycle in the same phase order as
    ``Network._step_active``; the kernel keeps no reference to its network.
    """

    def __init__(self, config: Any, topo: Any):
        noc = config.noc
        #: The platform the shared route table is memoized for.
        self.noc = noc
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
        new("nsent", R, 0)  # flits pushed onto the injection link
        new("nej", R, 0)  # flits consumed by completed reassembly
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
        self.rcap = [
            sum(1 for p in range(4) if nb[r * P + p] >= 0)
            * V
            * self.retx_depth
            for r in range(R)
        ]

        # Python-side state.
        #: Per-input-VC routing candidates (tuple of ports) while a head
        #: waits in the pipeline; indexed like the VC arrays.
        self.cands: List[Optional[Tuple[int, ...]]] = [None] * (R * P * V)
        #: Per-router sorted list of non-empty input VCs (p*V+v); drives
        #: every pipeline stage in the object model's scan order.
        self.occ: List[List[int]] = [[] for _ in range(R)]
        #: Routers holding at least one buffered flit.
        self.live: Set[int] = set()
        #: Wake sets fed by the delay lines (swapped with the lines).
        self.wr_cur: Set[int] = set()
        self.wr_next: Set[int] = set()
        self.wn_cur: Set[int] = set()
        self.wn_next: Set[int] = set()
        # Growable packet descriptor table, slots recycled LIFO.
        self.pk_dst: List[int] = []
        self.pk_inj: List[int] = []
        self.pk_nf: List[int] = []
        self.pk_hops: List[int] = []
        self.pk_free: List[int] = []
        #: Shared memo, so never checkpointed (re-bound by ``__setstate__``).
        self.route_table = route_table(noc)
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
        "nic", "nis_slot", "nis_next", "nirr", "nsent", "nej",
        "rbuf", "ln",
        "rxt_cur", "rxt_next", "rxv_cur", "rxv_next",
        "ejt_cur", "ejt_next", "crv_cur", "crv_next",
    )

    def _new_array(self, name: str, n: int, fill: int) -> None:
        assert name in self.ARRAY_NAMES
        setattr(self, name, [fill] * n)

    def __getstate__(self) -> Dict[str, Any]:
        # Pack each state table into a typed int64 buffer for the pickle
        # stream; it round-trips exactly and keeps checkpoints compact.
        state = dict(self.__dict__)
        del state["route_table"]
        for name in self.ARRAY_NAMES:
            state[name] = array("q", state[name])
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in self.ARRAY_NAMES:
            state[name] = state[name].tolist()
        self.__dict__.update(state)
        self.route_table = route_table(self.noc)

    # ------------------------------------------------------------------
    # packet descriptors
    # ------------------------------------------------------------------

    def _alloc_slot(self, packet: Any) -> int:
        free = self.pk_free
        if free:
            slot = free.pop()
            self.pk_dst[slot] = packet.dst
            self.pk_inj[slot] = packet.injection_cycle
            self.pk_nf[slot] = packet.num_flits
            self.pk_hops[slot] = 0
        else:
            slot = len(self.pk_dst)
            self.pk_dst.append(packet.dst)
            self.pk_inj.append(packet.injection_cycle)
            self.pk_nf.append(packet.num_flits)
            self.pk_hops.append(0)
        return slot

    # ------------------------------------------------------------------
    # the cycle
    # ------------------------------------------------------------------

    def step(self, net: Any) -> None:
        """Advance ``net`` one cycle; phase order mirrors
        ``Network._step_active``."""
        stats = net.stats
        tel = net.telemetry
        run_record = net.run_record
        cycle = run_record.cycle
        R, P, V, D = self.R, self.P, self.V, self.D
        PV = P * V
        buf, bh, bc = self.buf, self.bh, self.bc
        st, op, ov = self.st, self.op, self.ov
        rtc, vac, varot = self.rtc, self.vac, self.varot
        va_arb, sa_in, sa_out = self.va_arb, self.sa_in, self.sa_out
        cred, alloc, nseq = self.cred, self.alloc, self.nseq
        cands = self.cands
        pk_dst, pk_nf, pk_hops = self.pk_dst, self.pk_nf, self.pk_hops
        nb = self.nb
        ln = self.ln
        route_table = self.route_table
        rxt_next, rxv_next = self.rxt_next, self.rxv_next
        wr_next = self.wr_next
        nsent = self.nsent
        # Flit-conservation gauges, kept in locals for the hot loop and
        # written back before anything (the sampler) can observe them.
        tb = self.total_buffered
        lf = self.line_flits
        # Energy tallies, flushed once at the end of the cycle (identical
        # totals to the object model's per-event calls).
        n_local = n_bufw = n_rt = n_vagrant = n_st = n_credit = n_mesh = 0

        # Phase 1: NIs consume ejections delivered by the previous cycle.
        wn = self.wn_cur
        if wn:
            ejt = self.ejt_cur
            pk_inj = self.pk_inj
            nej = self.nej
            for r in sorted(wn):  # ascending node order, like the object loop
                token = ejt[r]
                ejt[r] = -1
                slot = token >> _SEQ_BITS
                nf = pk_nf[slot]
                if (token & _SEQ_MASK) == nf - 1:
                    # Tail arrived: the reassembly completes and delivers.
                    stats.count("flits_ejected", nf)
                    nej[r] += nf
                    stats.record_ejection(cycle - pk_inj[slot], pk_hops[slot])
                    run_record.delivered += 1
                    self.pk_free.append(slot)
            lf -= len(wn)
            wn.clear()

        # Phase 2: scheduled events — none exist inside the batched domain
        # (E2E reverse-path traffic is excluded by kernel_supports).

        # Phase 3: routers consume link deliveries (credits, then flits,
        # both in port order — the object model's receive() ordering).
        wr = self.wr_cur
        if wr:
            rxt, rxv, crv = self.rxt_cur, self.rxv_cur, self.crv_cur
            occ = self.occ
            rbuf = self.rbuf
            live = self.live
            for r in sorted(wr):
                base = r * P
                for p in range(P):
                    v = crv[base + p]
                    if v >= 0:
                        crv[base + p] = -1
                        cred[(base + p) * V + v] += 1
                for p in range(P):
                    token = rxt[base + p]
                    if token >= 0:
                        rxt[base + p] = -1
                        v = rxv[base + p]
                        rxv[base + p] = -1
                        idx = (base + p) * V + v
                        n = bc[idx]
                        buf[idx * D + (bh[idx] + n) % D] = token
                        if n == 0:
                            insort(occ[r], p * V + v)
                        bc[idx] = n + 1
                        rbuf[r] += 1
                        tb += 1
                        lf -= 1
                        live.add(r)
                        n_bufw += 1
            wr.clear()

        # Phase 4: NIs inject (stream continuation first, round-robin over
        # VCs, then at most one new packet — NetworkInterface.inject).
        ni_tx = net._ni_tx_active
        if ni_tx:
            nic, nis_slot, nis_next = self.nic, self.nis_slot, self.nis_next
            nirr = self.nirr
            interfaces = net.interfaces
            drained: List[int] = []
            for node in sorted(ni_tx):
                ni = interfaces[node]
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
                        else:
                            nis_next[si] = seq + 1
                        nic[si] -= 1
                        nsent[node] += 1
                        i = node * P + _LOCAL
                        rxt_next[i] = (slot << _SEQ_BITS) | seq
                        rxv_next[i] = vc
                        wr_next.add(node)
                        lf += 1
                        n_local += 1
                        nirr[node] = (vc + 1) % V
                        sent = True
                        break
                if not sent and ni.pending:
                    for vc in range(V):
                        si = nbase + vc
                        if nis_slot[si] < 0 and nic[si] > 0:
                            packet = ni.pending.popleft()
                            slot = self._alloc_slot(packet)
                            if pk_nf[slot] > 1:
                                nis_slot[si] = slot
                                nis_next[si] = 1
                            nic[si] -= 1
                            nsent[node] += 1
                            i = node * P + _LOCAL
                            rxt_next[i] = slot << _SEQ_BITS
                            rxv_next[i] = vc
                            wr_next.add(node)
                            lf += 1
                            n_local += 1
                            break
                if not ni.pending:
                    for vc in range(V):
                        if nis_slot[nbase + vc] >= 0:
                            break
                    else:
                        drained.append(node)
            if drained:
                ni_tx.difference_update(drained)

        # Phase 5: router pipelines, ascending node order.  Cross-router
        # effects travel only on the delay lines, so within-phase order
        # cannot change outcomes — but telemetry event order can, hence
        # the same sorted order as the object loop.
        sends = 0
        live = self.live
        if live:
            va_gate = cycle - self._va_delay
            sa_gate = cycle - self._sa_delay
            rxt_next, rxv_next = self.rxt_next, self.rxv_next
            crv_next, ejt_next = self.crv_next, self.ejt_next
            wr_next, wn_next = self.wr_next, self.wn_next
            nic = self.nic
            rbuf = self.rbuf
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
                    cands[idx] = route_table[r * R + pk_dst[token >> _SEQ_BITS]]
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
                    # Stage 1: each requester picks one free output channel
                    # by its private rotation over the usable set; the free
                    # set is a snapshot (grants apply after stage 2).
                    contested: Dict[int, List[int]] = {}
                    for pv in va_requests:
                        idx = rbase + pv
                        usable = [
                            p_ * V + v_
                            for p_ in cands[idx]
                            for v_ in range(V)
                            if alloc[rbase + p_ * V + v_] < 0
                        ]
                        if not usable:
                            continue  # rotation not advanced, as the object
                        rot = varot[idx]
                        varot[idx] = rot + 1
                        contested.setdefault(
                            usable[rot % len(usable)], []
                        ).append(pv)
                    # Stage 2: one round-robin arbiter per output channel.
                    grants: List[Tuple[int, int]] = []
                    for oc, reqs in contested.items():
                        aidx = rbase + oc
                        if len(reqs) == 1:
                            winner = reqs[0]
                        else:
                            reqset = set(reqs)
                            nxt = va_arb[aidx]
                            winner = -1
                            for offset in range(PV):
                                i = (nxt + offset) % PV
                                if i in reqset:
                                    winner = i
                                    break
                        va_arb[aidx] = (winner + 1) % PV
                        grants.append((winner, oc))
                    if not grants:
                        if tel is not None:
                            tel.publish(
                                cycle,
                                "vc_alloc_fail",
                                r,
                                count=len(va_requests),
                            )
                    else:
                        failed = len(va_requests) - len(grants)
                        if failed and tel is not None:
                            tel.publish(
                                cycle, "vc_alloc_fail", r, count=failed
                            )
                        for pv, oc in grants:
                            idx = rbase + pv
                            op[idx] = oc // V
                            ov[idx] = oc % V
                            st[idx] = 2
                            vac[idx] = cycle
                            alloc[rbase + oc] = pv
                            n_vagrant += 1

                # SA: input stage (RR over VCs per in-port) then output
                # stage (RR over in-ports per out-port) — SwitchAllocator.
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
                    by_in: Dict[int, List[int]] = {}
                    for pv in bids:
                        by_in.setdefault(pv // V, []).append(pv % V)
                    stage1: Dict[int, int] = {}
                    for p_, vcs in by_in.items():
                        aidx = r * P + p_
                        if len(vcs) == 1:
                            w = vcs[0]
                        else:
                            vset = set(vcs)
                            nxt = sa_in[aidx]
                            w = -1
                            for offset in range(V):
                                i = (nxt + offset) % V
                                if i in vset:
                                    w = i
                                    break
                        sa_in[aidx] = (w + 1) % V
                        stage1[p_] = w
                    by_out: Dict[int, List[int]] = {}
                    for p_, w in stage1.items():
                        by_out.setdefault(op[rbase + p_ * V + w], []).append(p_)
                    for o, ports in by_out.items():
                        aidx = r * P + o
                        if len(ports) == 1:
                            wp = ports[0]
                        else:
                            pset = set(ports)
                            nxt = sa_out[aidx]
                            wp = -1
                            for offset in range(P):
                                i = (nxt + offset) % P
                                if i in pset:
                                    wp = i
                                    break
                        sa_out[aidx] = (wp + 1) % P

                        # ST/LT for the winning input VC.
                        w = stage1[wp]
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
                            # NI credits skip the delay line: injection
                            # happens before compute, so a +1 here is first
                            # observable next cycle — 1-cycle latency.
                            nic[r * V + w] += 1
                        else:
                            u = nb[r * P + wp]
                            crv_next[u * P + _OPP[wp]] = w
                            wr_next.add(u)
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
                            d_ = nb[r * P + o]
                            di = d_ * P + _OPP[o]
                            rxt_next[di] = token
                            rxv_next[di] = out_vc
                            wr_next.add(d_)
                        lf += 1
                        sends += 1
                        if fseq == pk_nf[slot] - 1:
                            # Tail: release the channel, reset the pipeline.
                            alloc[cidx] = -1
                            st[idx] = 0
                            op[idx] = -1
                            ov[idx] = -1
                            rtc[idx] = -1
                            vac[idx] = -1
                            cands[idx] = None
                if rbuf[r] == 0:
                    live.discard(r)

        # Publish the gauges before anything downstream (the utilization
        # recorder, the telemetry sampler) can read them off the kernel.
        self.total_buffered = tb
        self.line_flits = lf
        net._send_history.append(sends)
        if net.config.collect_utilization:
            stats.record_utilization(
                tb,
                net._tx_capacity,
                min(sum(net._send_history), net._retx_capacity),
                net._retx_capacity,
            )
        if tel is not None:
            tel.on_cycle_end(net)
        if stats.measuring:
            # One flush per cycle; dict equality is order-insensitive and
            # the `if` guards keep zero-valued keys from appearing.
            energy = stats.energy_events
            if n_local:
                energy["local_link"] += n_local
            if n_bufw:
                energy["buffer_write"] += n_bufw
            if n_rt:
                energy["rt_op"] += n_rt
            if n_vagrant:
                energy["va_grant"] += n_vagrant
            if n_st:
                energy["buffer_read"] += n_st
                energy["sa_grant"] += n_st
                energy["xbar"] += n_st
            if n_credit:
                energy["credit"] += n_credit
            if n_mesh:
                energy["link"] += n_mesh
                energy["retx_write"] += n_mesh
        stats.cycles += 1
        run_record.cycle += 1

        # Swap the delay lines and wake sets: everything sent this cycle
        # arrives next cycle.  The consumed *_cur sides were reset to empty
        # (-1 / cleared) as they were drained, so they can carry next
        # cycle's traffic.
        self.rxt_cur, self.rxt_next = self.rxt_next, self.rxt_cur
        self.rxv_cur, self.rxv_next = self.rxv_next, self.rxv_cur
        self.ejt_cur, self.ejt_next = self.ejt_next, self.ejt_cur
        self.crv_cur, self.crv_next = self.crv_next, self.crv_cur
        self.wr_cur, self.wr_next = self.wr_next, self.wr_cur
        self.wn_cur, self.wn_next = self.wn_next, self.wn_cur

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def in_flight_flits(self) -> int:
        return self.total_buffered + self.line_flits

    def make_sampler(self, topo: Any) -> KernelSampler:
        return KernelSampler(self, topo)

    def __repr__(self) -> str:
        return (
            f"BatchedKernel({self.R} routers, buffered="
            f"{self.total_buffered}, lines={self.line_flits})"
        )
