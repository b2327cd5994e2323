"""Flits: the unit of flow control.

A flit carries its packet identity, its position within the packet, the
destination the routers will steer by (which fault injection may corrupt),
and a symbolic corruption tag (see :class:`repro.types.Corruption`).

``__slots__`` keeps flits small: the simulator creates millions of them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.types import Corruption, Direction, FlitType


class Flit:
    """One flit of a wormhole packet.

    Attributes
    ----------
    packet_id:
        Globally unique id of the packet this flit belongs to.
    seq:
        Position within the packet (0 = head).
    ftype:
        HEAD / BODY / TAIL / HEAD_TAIL.
    src:
        Injecting node id.
    dst:
        Destination node id *as the routers currently see it*.  Header
        corruption (E2E/FEC multi-bit errors) rewrites this field.
    true_dst:
        The destination the source intended; never mutated.  Network
        interfaces compare ``dst`` routing outcomes against this to detect
        misdelivery — behaviourally, via the header ECC check at ejection.
    injection_cycle:
        Cycle the packet's head entered the source queue (for latency).
    corruption:
        Symbolic corruption class accumulated on the flit.
    source_route:
        For :data:`repro.types.RoutingAlgorithm.SOURCE` packets: remaining
        output directions, consumed one per hop.
    link_seq:
        Per-(link, VC) sequence number stamped by the sender at each link
        traversal; used by the HBH rollback protocol.
    payload:
        Optional integer payload; carried through the real ECC codec by the
        network-interface payload path.
    """

    __slots__ = (
        "packet_id",
        "seq",
        "ftype",
        "src",
        "dst",
        "true_dst",
        "injection_cycle",
        "corruption",
        "dst_error",
        "src_error",
        "source_route",
        "link_seq",
        "payload",
        "hops",
    )

    def __init__(
        self,
        packet_id: int,
        seq: int,
        ftype: FlitType,
        src: int,
        dst: int,
        injection_cycle: int = 0,
        payload: int = 0,
        source_route: Optional[List[Direction]] = None,
    ):
        self.packet_id = packet_id
        self.seq = seq
        self.ftype = ftype
        self.src = src
        self.dst = dst
        self.true_dst = dst
        self.injection_cycle = injection_cycle
        self.corruption = Corruption.NONE
        self.dst_error = Corruption.NONE
        self.src_error = Corruption.NONE
        self.source_route = source_route
        self.link_seq = -1
        self.payload = payload
        self.hops = 0

    @property
    def is_head(self) -> bool:
        return self.ftype in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self.ftype in (FlitType.TAIL, FlitType.HEAD_TAIL)

    def corrupt(self, severity: Corruption) -> None:
        """Accumulate corruption.

        MULTI dominates SINGLE dominates NONE, and two independent
        single-bit upsets compose into a double error (a second SINGLE on
        an already-SINGLE flit escalates to MULTI) — validated bit-for-bit
        against the real codec by
        :class:`repro.coding.payload_check.PayloadChecker`.
        """
        if severity is Corruption.SINGLE and self.corruption is Corruption.SINGLE:
            self.corruption = Corruption.MULTI
        elif severity.value > self.corruption.value:
            self.corruption = severity

    def clear_single_error(self) -> bool:
        """Correct a single-bit error in place (what a SEC stage does).

        Returns True if a correction happened.  MULTI corruption cannot be
        cleared this way.
        """
        if self.corruption is Corruption.SINGLE:
            self.corruption = Corruption.NONE
            return True
        return False

    def __repr__(self) -> str:
        tag = {Corruption.NONE: "", Corruption.SINGLE: "*", Corruption.MULTI: "**"}[
            self.corruption
        ]
        return (
            f"Flit(p{self.packet_id}.{self.seq} {self.ftype.name}"
            f" {self.src}->{self.dst}{tag})"
        )
