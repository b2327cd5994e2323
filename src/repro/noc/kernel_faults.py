"""The batched kernel under link upsets: transient faults and burst sites.

:class:`LinkFaultKernel` is the :class:`~repro.noc.kernel.BatchedKernel`
of a config whose only nonzero fault rate is ``FaultSite.LINK``, or that
has burst sites which cannot wear out, under any link protection
(:func:`~repro.noc.kernel.kernel_supports`, ``build_kernel``).  It adds
the state the object model keeps for that case — expected link
sequences, NACK counts, per-channel retransmission rings and replay
queues, a NACK delay line, the transfer's sequence and upset on the flit
lines, route-NACK rollback queues, NI reassemblies, the tags of corrupted
packets and the drain and teardown-credit state of the unroutable
teardown — and overrides ``BatchedKernel.step``'s stage
methods to add the per-hop error handling at the object model's call
sites, drawing from the injector's shared stream in the object model's
order.  What a completed packet becomes stays with its NI, as on the
fault-free kernel.  ``repro.noc.kernel.build_kernel`` imports this module
only when a config needs it, so a fault-free run never compiles it.

Tables, dataflow and the RNG-order argument: ``docs/KERNEL.md``, "Link
faults".
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, List, Optional, Tuple

from repro.core.schemes import apply_header_upset, pick_header_field
from repro.noc.kernel import (
    _DIRECTIONS,
    _LOCAL,
    _OPP,
    _SEQ_BITS,
    _SEQ_MASK,
    BatchedKernel,
    _flush_energy,
    _FlitView,
)
from repro.noc.routing import xy_arrival_is_legal
from repro.types import Corruption, LinkProtection, RoutingAlgorithm

#: NACK kinds on the NACK delay line (``NackSignal.kind``).
_NACK_LINK = 0
_NACK_ROUTE = 1


def _entries(
    seqs: List[int], toks: List[int], count: List[int], cidx: int, depth: int
) -> List[Tuple[int, int]]:
    """The ``(seq, token)`` entries of one channel's ring or replay queue."""
    base = cidx * depth
    n = count[cidx]
    return list(zip(seqs[base:base + n], toks[base:base + n]))


def _set_entries(
    seqs: List[int],
    toks: List[int],
    count: List[int],
    cidx: int,
    depth: int,
    entries: List[Tuple[int, int]],
) -> None:
    assert len(entries) <= depth, "a ring or replay queue overflowed"
    base = cidx * depth
    for i, (seq, token) in enumerate(entries):
        seqs[base + i] = seq
        toks[base + i] = token
    count[cidx] = len(entries)


class LinkFaultKernel(BatchedKernel):
    """A :class:`BatchedKernel` that also models link upsets: transient
    ones and the strikes of burst sites (``FaultInjector.link_upset``)."""

    #: The fault-free tables, then the link-fault state (docs/KERNEL.md,
    #: "Link-fault state"), in checkpoint-payload order.
    ARRAY_NAMES = BatchedKernel.ARRAY_NAMES + (
        "ex", "nackr", "lown",
        "rt_seq", "rt_tok", "rt_h", "rt_n", "rq_seq", "rq_tok", "rq_n", "rqr",
        "rxs_cur", "rxs_next", "rxc_cur", "rxc_next",
        "nkn_cur", "nkn_next", "nk_cur", "nk_next", "dr",
    )
    #: The fault-free line keys, then the lines written with NACKs.
    LINE_KEYS = BatchedKernel.LINE_KEYS + ("nl_cur", "nl_next")

    def __init__(self, config: Any, topo: Any):
        super().__init__(config, topo)
        noc = config.noc
        R, P, V = self.R, self.P, self.V
        depth = self.retx_depth
        self.protection = noc.link_protection
        self.max_nack_retries = noc.max_nack_retries
        #: Section 4.2 receiver-side misroute detection (HBH + plain XY;
        #: it stands down under port-aware table routing, as
        #: ``Router._is_xy`` does).
        self.xy_check = (
            noc.link_protection is LinkProtection.HBH
            and noc.routing is RoutingAlgorithm.XY
            and not self.port_aware
        )
        new = self._new_array
        new("ex", R * P * V, 0)  # input VC expected link sequence
        new("nackr", R * P * V, 0)  # NACKs sent for the expected flit
        new("lown", R * P * V, -1)  # last owning input VC, by out-channel
        new("rt_seq", R * P * V * depth, 0)  # retransmission rings:
        new("rt_tok", R * P * V * depth, 0)  # circular, stores in order
        new("rt_h", R * P * V, 0)  # oldest store's slot
        new("rt_n", R * P * V, 0)
        new("rq_seq", R * P * V * depth, 0)  # replay queues, by seq
        new("rq_tok", R * P * V * depth, 0)
        new("rq_n", R * P * V, 0)
        new("rqr", R, 0)  # replay-queue flits per router
        new("rxs_cur", R * P, 0)  # link sequence of the line's flit
        new("rxs_next", R * P, 0)
        new("rxc_cur", R * P, 0)  # its transit Corruption (0/1/2)
        new("rxc_next", R * P, 0)
        new("nkn_cur", R * P, 0)  # NACKs toward router out-port
        new("nkn_next", R * P, 0)
        new("nk_cur", R * P * (V + 1), 0)  # packed (seq, vc, kind)
        new("nk_next", R * P * (V + 1), 0)
        new("dr", R * P * V, 0)  # draining a torn-down packet's flits
        #: Fault tags of corrupted packets only, by slot: ``[true_dst,
        #: dst_error, src_error, per-flit Corruption list]`` (``Flit``'s
        #: fields).
        self.pk_tag: Dict[int, List[Any]] = {}
        #: Route-NACK rollback queues (``VCBuffer.rollback_queue``): input
        #: VC index -> tokens ahead of the ring; present only when non-empty.
        self.rbq: Dict[int, List[int]] = {}
        #: Section 4.2 verdicts (``xy_arrival_is_legal``) by ``(r*P +
        #: port)*R + dst``, filled as headers ask; a memo, so never
        #: checkpointed.
        self.xy_legal: Dict[int, bool] = {}
        #: Per-NI reassemblies (``PacketReassembler``): packet id -> {flit
        #: seq: slot}.
        self.ras: List[Dict[int, Dict[int, int]]] = [{} for _ in range(R)]
        #: Flits in replay queues (``Router.retx_pending_flits``, summed).
        self.rq_total = 0
        #: Credit lines of the unroutable teardown (``_drop_unroutable``,
        #: drained flits), which may credit a link several times a cycle:
        #: line ``u*P + port`` -> the VCs credited.
        self.xcr_cur: Dict[int, List[int]] = {}
        self.xcr_next: Dict[int, List[int]] = {}
        #: Line keys of the NACK lines (``cl``, the credit keys, also name
        #: each teardown credit line).
        self.nl_cur: List[int] = []
        self.nl_next: List[int] = []

    def __getstate__(self) -> Dict[str, Any]:
        state = super().__getstate__()
        state["xy_legal"] = {}
        return state

    @property
    def in_flight_flits(self) -> int:
        return self.total_buffered + self.line_flits + self.rq_total

    def retx_occupancy(self, r: int) -> int:
        """Replay-queue plus ring entries over router ``r``'s mesh output
        channels (``Router.retx_occupancy``)."""
        rt_n, rq_n = self.rt_n, self.rq_n
        return sum(rt_n[c] + rq_n[c] for c in self.mesh_channels(r))

    def _derive_line_keys(self) -> None:
        super()._derive_line_keys()
        self.cl_cur += self.xcr_cur
        nkn = self.nkn_cur
        self.nl_cur = [i for i in range(self.R * self.P) if nkn[i]]
        self.nl_next = []

    def _swap_lines(self) -> None:
        super()._swap_lines()
        self.rxs_cur, self.rxs_next = self.rxs_next, self.rxs_cur
        self.rxc_cur, self.rxc_next = self.rxc_next, self.rxc_cur
        self.nkn_cur, self.nkn_next = self.nkn_next, self.nkn_cur
        self.nk_cur, self.nk_next = self.nk_next, self.nk_cur
        self.xcr_cur, self.xcr_next = self.xcr_next, self.xcr_cur
        self.nl_cur, self.nl_next = self.nl_next, self.nl_cur

    def _next_keys(self) -> Tuple[List[int], ...]:
        return super()._next_keys() + (self.nl_next,)

    def _take_line(self, i: int) -> Tuple[Any, ...]:
        """The base item plus the flit's sequence and upset, the line's
        NACKs and its teardown credits."""
        n = self.nkn_next[i]
        self.nkn_next[i] = 0
        W = self.V + 1
        return super()._take_line(i) + (
            self.rxs_next[i],
            self.rxc_next[i],
            tuple(self.nk_next[i * W:i * W + n]),
            self.xcr_next.pop(i, None),
        )

    def _put_line(self, item: Tuple[Any, ...]) -> None:
        super()._put_line(item)
        i, seq, upset, nacks, credits = item[0], *item[4:]
        self.rxs_cur[i] = seq
        self.rxc_cur[i] = upset
        if nacks:
            W = self.V + 1
            self.nkn_cur[i] = len(nacks)
            self.nk_cur[i * W:i * W + len(nacks)] = nacks
            self.nl_cur.append(i)
        if credits is not None:
            self.xcr_cur[i] = credits
            self.cl_cur.append(i)

    def _send_credits(self, r: int, port: int, vc: int, n: int) -> None:
        """Return ``n`` credits for router ``r``'s mesh input ``(port, vc)``
        to its sender, on the teardown credit line.  (A header on the PE
        channel is never rewritten, so no teardown happens there.)"""
        line = self.nb[r * self.P + port] * self.P + _OPP[port]
        credits = self.xcr_next.get(line)
        if credits is None:
            credits = self.xcr_next[line] = []
            self.cl_next.append(line)
        credits.extend([vc] * n)

    def _eject(self, net: Any, cycle: int) -> None:
        """Phase 1: NIs reassemble ejected flits (``PacketReassembler``),
        which replays and re-forwards can interleave, and hand each
        completed packet to its NI (``_deliver``)."""
        wn = self.wn_cur
        if not wn:
            return
        ejt = self.ejt_cur
        pk_id, pk_nf, ras = self.pk_id, self.pk_nf, self.ras
        for r in sorted(wn):
            token = ejt[r]
            ejt[r] = -1
            slot = token >> _SEQ_BITS
            pid = pk_id[slot]
            held = ras[r].setdefault(pid, {})
            held[token & _SEQ_MASK] = slot
            nf = pk_nf[slot]
            if len(held) == nf:  # the tail and every flit before it
                del ras[r][pid]
                self._deliver(net, r, cycle, [held[s] for s in range(nf)])
        self.line_flits -= len(wn)
        wn.clear()

    def _deliver(self, net: Any, node: int, cycle: int, slots: List[int]) -> None:
        super()._deliver(net, node, cycle, slots)
        for slot in slots:
            self.pk_tag.pop(slot, None)

    def _flit_view(self, slot: int, seq: int) -> _FlitView:
        """The flit with its fault fields, where its packet was upset."""
        view = super()._flit_view(slot, seq)
        tag = self.pk_tag.get(slot)
        if tag is not None:
            view.true_dst, view.dst_error, view.src_error = tag[0], tag[1], tag[2]
            view.corruption = tag[3][seq]
        return view

    def _materialize(self, rng: Any, token: int, severity: Corruption) -> None:
        """``Router._materialize_corruption``: land an in-transit upset in
        the flit's fields, with the same header-field draws."""
        slot = token >> _SEQ_BITS
        seq = token & _SEQ_MASK
        tag = self.pk_tag.get(slot)
        if tag is None:
            # The first tag records the true destination: only an upset,
            # which tags first, ever rewrites pk_dst.
            nf = self.pk_nf[slot]
            none = Corruption.NONE
            tag = self.pk_tag[slot] = [self.pk_dst[slot], none, none, [none] * nf]
        flit = self._flit_view(slot, seq)
        if seq == 0:
            field = pick_header_field(rng)
            apply_header_upset(flit, severity, field, self.R, rng)
        else:
            flit.corrupt(severity)
        self.pk_dst[slot] = flit.dst
        tag[1] = flit.dst_error
        tag[2] = flit.src_error
        tag[3][seq] = flit.corruption

    def _receive(self, net: Any, cycle: int) -> None:
        """Phase 3: the credits (additions, in any order), then each
        router's NACKs in port order (``Router._handle_nack``), then its
        flits in port order through the per-hop check and the sequence
        filter (``Router._accept_transfer``).  The NACK and flit keys,
        sorted once, give the object model's router-by-router order, so
        the RNG draws and telemetry events come in its order too."""
        P, V, D = self.P, self.V, self.D
        cred = self.cred
        cl = self.cl_cur
        if cl:
            crv = self.crv_cur
            for i in cl:
                v = crv[i]
                if v >= 0:  # a teardown credit line may carry none
                    crv[i] = -1
                    cred[i * V + v] += 1
            cl.clear()
        xcr = self.xcr_cur
        if xcr:  # teardown credits, several a line
            for line, vcs in xcr.items():
                for v in vcs:
                    cred[line * V + v] += 1
            xcr.clear()
        nl, fl = self.nl_cur, self.fl_cur
        if not (nl or fl):
            return
        # Key r*2P + kind*P + p: router r's NACK lines (kind 0), then its
        # flit lines (kind 1), each in port order.
        keys = [i + (i // P + 1) * P for i in fl]
        fl.clear()
        if nl:
            keys += [i + i // P * P for i in nl]
            nl.clear()
        keys.sort()
        stats = net.stats
        tel = net.telemetry
        rng = net.injector.rng
        W = V + 1
        PP = 2 * P
        buf, bh, bc = self.buf, self.bh, self.bc
        ex, nackr, dr = self.ex, self.nackr, self.dr
        rxt, rxv = self.rxt_cur, self.rxv_cur
        rxs, rxc = self.rxs_cur, self.rxc_cur
        nkn, nk = self.nkn_cur, self.nk_cur
        occ, rbuf, live, rbq = self.occ, self.rbuf, self.live, self.rbq
        pk_id = self.pk_id
        hbh = self.protection is LinkProtection.HBH
        max_retries = self.max_nack_retries
        tb = self.total_buffered
        lf = self.line_flits
        n_bufw = n_nack = 0
        for key in keys:
            r, p = divmod(key, PP)
            if p < P:
                i = r * P + p
                n = nkn[i]
                nkn[i] = 0
                start = i * W
                for packed in nk[start:start + n]:
                    vc = (packed >> 1) % V
                    seq = (packed >> 1) // V
                    if packed & 1:
                        tb += self._route_nack(net, cycle, r, p, vc, seq)
                    else:
                        self._link_nack(net, cycle, r, p, vc, seq)
                continue
            p -= P
            i = r * P + p
            token = rxt[i]
            rxt[i] = -1
            v = rxv[i]
            rxv[i] = -1
            lf -= 1
            idx = i * V + v
            if p != _LOCAL:  # PE-channel flits are never upset or late
                seq = rxs[i]
                if dr[idx] and token & _SEQ_MASK:
                    self._drain(net, cycle, r, p, v, seq, token)
                    continue
                c = rxc[i]
                if hbh:
                    if c == 1:
                        # The SEC stage corrects single-bit upsets.
                        c = 0
                        stats.count("fec_corrections")
                    if c == 2:
                        if seq != ex[idx]:
                            stats.count("flits_dropped")
                            if tel is not None:
                                tel.publish(
                                    cycle, "flit_drop", r,
                                    reason="out_of_window",
                                    packet=pk_id[token >> _SEQ_BITS],
                                )
                            continue
                        nackr[idx] += 1
                        if nackr[idx] <= max_retries:
                            self._send_nack(r, p, v, seq, _NACK_LINK)
                            n_nack += 1
                            stats.count("flits_dropped")
                            if tel is not None:
                                tel.publish(
                                    cycle, "nack", r, kind="link", port=p,
                                    vc=v, seq=seq, retry=nackr[idx],
                                )
                            continue
                        # Endless-retransmission escape (Section 4.5).
                        stats.count("retransmission_giveups")
                        if tel is not None:
                            tel.publish(
                                cycle, "retransmission_giveup", r, port=p,
                                vc=v, packet=pk_id[token >> _SEQ_BITS],
                            )
                        self._materialize(rng, token, Corruption.MULTI)
                elif c:
                    # Unchecked schemes: the upset lands in the fields.
                    self._materialize(rng, token, Corruption(c))
                if seq != ex[idx]:
                    stats.count("flits_dropped")
                    if tel is not None:
                        tel.publish(
                            cycle, "flit_drop", r, reason="out_of_window",
                            packet=pk_id[token >> _SEQ_BITS],
                        )
                    continue
                ex[idx] = seq + 1
                nackr[idx] = 0
                dr[idx] = 0  # a draining VC accepts only a header
            n = bc[idx]
            buf[idx * D + (bh[idx] + n) % D] = token
            if n == 0 and idx not in rbq:
                insort(occ[r], p * V + v)
            bc[idx] = n + 1
            rbuf[r] += 1
            tb += 1
            live.add(r)
            n_bufw += 1
        self.total_buffered = tb
        self.line_flits = lf
        _flush_energy(stats, buffer_write=n_bufw, nack=n_nack)

    def _drain(
        self, net: Any, cycle: int, r: int, port: int, vc: int, seq: int, token: int
    ) -> None:
        """A follower of a packet torn down at router ``r``'s input
        ``(port, vc)`` arrived: consume it in window, credit its slot
        straight back, and keep draining until a header is accepted
        (``Router._accept_transfer``'s ``drain_until_head``)."""
        stats = net.stats
        if net.telemetry is not None:
            net.telemetry.publish(
                cycle, "flit_drop", r, reason="drain",
                packet=self.pk_id[token >> _SEQ_BITS],
            )
        idx = (r * self.P + port) * self.V + vc
        if seq == self.ex[idx]:
            self.ex[idx] = seq + 1
            self.nackr[idx] = 0
            stats.count("permanent_fault_flits_dropped")
            self._send_credits(r, port, vc, 1)
        else:
            stats.count("flits_dropped")

    def _drop_unroutable(
        self, net: Any, cycle: int, r: int, idx: int, slot: int
    ) -> int:
        """Router ``r``'s input VC ``idx`` holds a header whose rewritten
        destination its port-aware route cannot reach from the arrival
        port: tear the packet down (``Router._drop_unroutable``), crediting
        the buffered flits back.  Returns the flits dropped; the caller
        drops the VC from the occupancy index.  The packet's slot is never
        reused, since ring copies of its flits may still replay."""
        stats = net.stats
        stats.count("packets_unroutable")
        pid = self.pk_id[slot]
        if net.telemetry is not None:
            net.telemetry.publish(
                cycle, "flit_drop", r, reason="unroutable", packet=pid
            )
        V, D = self.V, self.D
        held = self.bc[idx]
        tokens = self.rbq.pop(idx, [])
        tokens += [self.buf[idx * D + (self.bh[idx] + k) % D] for k in range(held)]
        self.bc[idx] = 0
        if held:
            p = idx // V % self.P
            self._send_credits(r, p, idx % V, held)
        stats.count("permanent_fault_flits_dropped", len(tokens))
        nf = self.pk_nf
        if not any((t & _SEQ_MASK) == nf[t >> _SEQ_BITS] - 1 for t in tokens):
            self.dr[idx] = 1
        net.run_record.note_casualty(pid)
        self._reset_pipeline(idx)
        self.rbuf[r] -= len(tokens)
        return len(tokens)

    def _send_nack(self, r: int, port: int, vc: int, seq: int, kind: int) -> None:
        """NACK the sender of router ``r``'s input ``port`` (next cycle)."""
        line = self.nb[r * self.P + port] * self.P + _OPP[port]
        n = self.nkn_next[line]
        self.nk_next[line * (self.V + 1) + n] = ((seq * self.V + vc) << 1) | kind
        self.nkn_next[line] = n + 1
        if not n:
            self.nl_next.append(line)

    def _link_nack(
        self, net: Any, cycle: int, r: int, port: int, vc: int, seq: int
    ) -> None:
        """``OutputChannel.rollback``: queue every held flit from ``seq`` on
        that is not queued yet, and keep the queue in sequence order."""
        cidx = (r * self.P + port) * self.V + vc
        depth = self.retx_depth
        queue = _entries(self.rq_seq, self.rq_tok, self.rq_n, cidx, depth)
        queued = {s for s, _ in queue}
        ring = self._ring(cidx)
        added = [e for e in sorted(ring) if e[0] >= seq and e[0] not in queued]
        if not added:
            return
        _set_entries(
            self.rq_seq, self.rq_tok, self.rq_n, cidx, depth, sorted(queue + added)
        )
        self.rqr[r] += len(added)
        self.rq_total += len(added)
        self.live.add(r)
        stats = net.stats
        stats.count("retransmission_rounds")
        stats.count("link_errors_corrected")
        stats.count("flits_retransmitted", len(added))
        if net.telemetry is not None:
            net.telemetry.publish(
                cycle, "flit_replay", r, kind="link", port=port, vc=vc,
                flits=len(added),
            )

    def _route_nack(
        self, net: Any, cycle: int, r: int, port: int, vc: int, seq: int
    ) -> int:
        """A misrouted header was dropped downstream: take the flits from
        ``seq`` on out of the ring (discarding their stale replays), rewind
        the channel and return the flits to the owning input VC's rollback
        queue for re-routing.  Returns the flits put back in a buffer."""
        stats = net.stats
        P, V, depth = self.P, self.V, self.retx_depth
        cidx = (r * P + port) * V + vc
        queue = _entries(self.rq_seq, self.rq_tok, self.rq_n, cidx, depth)
        kept = [e for e in queue if e[0] < seq]
        stale = len(queue) - len(kept)
        if stale:
            stats.count("stale_replay_flits_discarded", stale)
            _set_entries(self.rq_seq, self.rq_tok, self.rq_n, cidx, depth, kept)
            self.rqr[r] -= stale
            self.rq_total -= stale
        ring = self._ring(cidx)
        taken = sorted(e for e in ring if e[0] >= seq)
        if not taken:
            return 0
        self._set_ring(cidx, [e for e in ring if e[0] < seq])
        self.nseq[cidx] = seq
        self.cred[cidx] += len(taken)
        owner = self.alloc[cidx] if self.alloc[cidx] >= 0 else self.lown[cidx]
        self.alloc[cidx] = -1
        stats.count("route_nack_rollbacks")
        if net.telemetry is not None:
            net.telemetry.publish(
                cycle, "flit_replay", r, kind="route", port=port, vc=vc,
                flits=len(taken),
            )
        stats.count("route_nack_flits_restored", len(taken))
        if owner < 0:
            stats.count("route_nack_orphans")
            return 0
        idx = r * P * V + owner
        self.rbq[idx] = [t for _, t in taken] + self.rbq.get(idx, [])
        self._reset_pipeline(idx)
        occ_r = self.occ[r]
        if owner not in occ_r:
            insort(occ_r, owner)
        self.rbuf[r] += len(taken)
        self.live.add(r)
        return len(taken)

    def _ring(self, cidx: int) -> List[Tuple[int, int]]:
        """Output channel ``cidx``'s ``(seq, token)`` ring, oldest store
        first (``RetransmissionBuffer._entries``)."""
        depth = self.retx_depth
        base, h = cidx * depth, self.rt_h[cidx]
        slots = [base + (h + i) % depth for i in range(self.rt_n[cidx])]
        return [(self.rt_seq[i], self.rt_tok[i]) for i in slots]

    def _set_ring(self, cidx: int, entries: List[Tuple[int, int]]) -> None:
        self.rt_h[cidx] = 0
        depth = self.retx_depth
        _set_entries(self.rt_seq, self.rt_tok, self.rt_n, cidx, depth, entries)

    def _restore(self, cidx: int, seq: int, token: int) -> None:
        """``RetransmissionBuffer.store`` of a replay: its ``seq`` is held
        (a replay queue holds only ring entries) and moves to the back.
        A first transmission's seq never is, since every held seq is below
        ``nseq``: the ST stage appends those in place."""
        ring = [e for e in self._ring(cidx) if e[0] != seq]
        self._set_ring(cidx, ring + [(seq, token)])

    def _pop_replay(self, r: int, cidx: int) -> Tuple[int, int]:
        """Pop the lowest-sequence replay of output channel ``cidx``."""
        base = cidx * self.retx_depth
        n = self.rq_n[cidx]
        rq_seq, rq_tok = self.rq_seq, self.rq_tok
        entry = (rq_seq[base], rq_tok[base])
        rq_seq[base:base + n - 1] = rq_seq[base + 1:base + n]
        rq_tok[base:base + n - 1] = rq_tok[base + 1:base + n]
        self.rq_n[cidx] = n - 1
        self.rqr[r] -= 1
        self.rq_total -= 1
        return entry

    def _compute(self, net: Any, cycle: int) -> int:
        """Phase 5: ``Router.compute`` with the replay output stage, the
        Section 4.2 misroute check, and a retransmission-ring store plus a
        ``link_upset`` draw per mesh send.  Returns the link sends."""
        live = self.live
        if not live:
            return 0
        stats = net.stats
        tel = net.telemetry
        link_upset = net.injector.link_upset
        R, P, V, D = self.R, self.P, self.V, self.D
        PV = P * V
        buf, bh, bc = self.buf, self.bh, self.bc
        st, op, ov = self.st, self.op, self.ov
        rtc, vac = self.rtc, self.vac
        cred, alloc, nseq, lown = self.cred, self.alloc, self.nseq, self.lown
        ex, rq_n, rqr, rbq = self.ex, self.rq_n, self.rqr, self.rbq
        rt_seq, rt_tok, rt_h, rt_n = self.rt_seq, self.rt_tok, self.rt_h, self.rt_n
        depth = self.retx_depth
        cands = self.cands
        pk_id, pk_dst, pk_nf = self.pk_id, self.pk_dst, self.pk_nf
        pk_hops = self.pk_hops
        nb, ln, nic, rbuf = self.nb, self.ln, self.nic, self.rbuf
        route_table, rt_row = self.route_table, self.rt_row
        rxt_next, rxv_next = self.rxt_next, self.rxv_next
        rxs_next, rxc_next = self.rxs_next, self.rxc_next
        crv_next, ejt_next = self.crv_next, self.ejt_next
        cl_next, fl_next, wn_next = self.cl_next, self.fl_next, self.wn_next
        xy_check, xy_legal, topo = self.xy_check, self.xy_legal, net.topology
        va_gate = cycle - self._va_delay
        sa_gate = cycle - self._sa_delay
        tb = self.total_buffered
        lf = self.line_flits
        n_local = n_rt = n_vagrant = n_st = n_credit = n_mesh = 0
        n_retx_read = n_nack = 0
        sends = 0
        for r in sorted(live):
            rbase = r * PV
            occ_r = self.occ[r]

            # Output stage: a queued replay has link priority, one flit
            # per mesh port (Router._output_stage); it spends no credit.
            busy = 0
            if rqr[r]:
                for o in self.mesh_ports:
                    cbase = rbase + o * V
                    for cidx in range(cbase, cbase + V):
                        if not rq_n[cidx]:
                            continue
                        seq, token = self._pop_replay(r, cidx)
                        self._restore(cidx, seq, token)
                        upset = link_upset(cycle, r, _DIRECTIONS[o])
                        ln[r * P + o] += 1
                        di = nb[r * P + o] * P + _OPP[o]
                        rxt_next[di] = token
                        rxv_next[di] = cidx - cbase
                        rxs_next[di] = seq
                        rxc_next[di] = 0 if upset is None else int(upset)
                        fl_next.append(di)
                        lf += 1
                        n_retx_read += 1
                        n_mesh += 1
                        sends += 1
                        busy |= 1 << o
                        break

            # RT, with the receiver-side misroute check (HBH + XY) on
            # headers that arrived over a mesh link.
            cleared: Optional[List[int]] = None
            for pv in occ_r:
                idx = rbase + pv
                if st[idx] != 0:
                    continue
                queued = rbq.get(idx)
                token = queued[0] if queued else buf[idx * D + bh[idx]]
                if token & _SEQ_MASK:
                    continue  # body flit; RT waits for a header
                slot = token >> _SEQ_BITS
                dst = pk_dst[slot]
                p = pv // V
                legal = True
                if xy_check and not queued and p != _LOCAL:
                    key = (r * P + p) * R + dst
                    legal = xy_legal.get(key)
                    if legal is None:
                        legal = xy_legal[key] = xy_arrival_is_legal(
                            topo, r, _DIRECTIONS[p], dst
                        )
                if not legal:
                    # Drop the header and its followers, NACK the sender
                    # to roll back and re-route (Router._detect_misroute).
                    dropped = bc[idx]
                    header_seq = ex[idx] - dropped
                    bc[idx] = 0
                    rbuf[r] -= dropped
                    tb -= dropped
                    ex[idx] = header_seq
                    self._reset_pipeline(idx)
                    self._send_nack(r, p, pv % V, header_seq, _NACK_ROUTE)
                    n_nack += 1
                    stats.count("rt_errors_corrected")
                    stats.count("route_nacks_sent")
                    stats.count("flits_dropped", dropped)
                    if tel is not None:
                        tel.publish(
                            cycle, "nack", r, kind="route", port=p, vc=pv % V,
                            seq=header_seq, packet=pk_id[slot],
                        )
                    cleared = (cleared or []) + [pv]
                    continue
                n_rt += 1
                route = route_table[rt_row[idx // V] + dst]
                if not route:
                    # Only a rewritten header meets an empty route.
                    tb -= self._drop_unroutable(net, cycle, r, idx, slot)
                    cleared = (cleared or []) + [pv]
                    continue
                cands[idx] = route
                st[idx] = 1
                rtc[idx] = cycle
            if cleared:
                occ_r[:] = [pv for pv in occ_r if pv not in cleared]

            # VA: separable two-stage allocation, as fault-free.
            va_requests: List[int] = []
            for pv in occ_r:
                idx = rbase + pv
                if st[idx] == 1 and rtc[idx] <= va_gate:
                    va_requests.append(pv)
            if va_requests:
                grants = self._allocate_vcs(r, rbase, va_requests, cycle, tel)
                for pv, oc in grants:
                    lown[rbase + oc] = pv
                n_vagrant += len(grants)

            # SA: as fault-free, but a channel with queued replays, a
            # port a replay holds this cycle and a channel the wormhole no
            # longer owns (a route NACK released it) cannot take a bid.
            bids: List[int] = []
            for pv in occ_r:
                idx = rbase + pv
                if st[idx] == 2 and vac[idx] <= sa_gate:
                    o = op[idx]
                    cidx = rbase + o * V + ov[idx]
                    if (
                        alloc[cidx] == pv
                        and cred[cidx] > 0
                        and not rq_n[cidx]
                        and not busy >> o & 1
                    ):
                        bids.append(pv)
            if bids:
                for o, wp, w in self._allocate_switch(r, rbase, bids):
                    # ST/LT: rollback-queue flits go first and were never
                    # credited, so they return no credit upstream.
                    pv = wp * V + w
                    idx = rbase + pv
                    queued = rbq.get(idx)
                    if queued:
                        token = queued.pop(0)
                        if not queued:
                            del rbq[idx]
                            if not bc[idx]:
                                occ_r.remove(pv)
                    else:
                        h = bh[idx]
                        token = buf[idx * D + h]
                        bh[idx] = (h + 1) % D
                        n = bc[idx] - 1
                        bc[idx] = n
                        if n == 0:
                            occ_r.remove(pv)
                        if wp == _LOCAL:
                            nic[r * V + w] += 1
                        else:
                            line = nb[r * P + wp] * P + _OPP[wp]
                            crv_next[line] = w
                            cl_next.append(line)
                        n_credit += 1
                    rbuf[r] -= 1
                    tb -= 1
                    n_st += 1
                    out_vc = ov[idx]
                    cidx = rbase + o * V + out_vc
                    seq = nseq[cidx]
                    nseq[cidx] = seq + 1
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
                        # RetransmissionBuffer.store: append, evicting the
                        # oldest store once the ring is full.
                        n = rt_n[cidx]
                        h = rt_h[cidx]
                        if n < depth:
                            i = cidx * depth + (h + n) % depth
                            rt_n[cidx] = n + 1
                        else:
                            i = cidx * depth + h
                            rt_h[cidx] = h + 1 if h + 1 < depth else 0
                        rt_seq[i] = seq
                        rt_tok[i] = token
                        upset = link_upset(cycle, r, _DIRECTIONS[o])
                        ln[r * P + o] += 1
                        n_mesh += 1
                        di = nb[r * P + o] * P + _OPP[o]
                        rxt_next[di] = token
                        rxv_next[di] = out_vc
                        rxs_next[di] = seq
                        rxc_next[di] = 0 if upset is None else int(upset)
                        fl_next.append(di)
                    lf += 1
                    sends += 1
                    if fseq == pk_nf[slot] - 1:
                        alloc[cidx] = -1
                        self._reset_pipeline(idx)
            if rbuf[r] == 0 and not rqr[r]:
                live.discard(r)
        self.total_buffered = tb
        self.line_flits = lf
        _flush_energy(
            stats, local_link=n_local, rt_op=n_rt, va_grant=n_vagrant,
            buffer_read=n_st, sa_grant=n_st, xbar=n_st, credit=n_credit,
            link=n_mesh, retx_write=n_mesh, retx_read=n_retx_read, nack=n_nack,
        )
        return sends
