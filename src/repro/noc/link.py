"""Inter-router links and their reverse/control channels.

A link is unidirectional (each neighboring router pair has one in each
direction) and carries, with single-cycle latency each way by default
(Section 2.2; 3D TSV links may take longer — see ``Link.latency``):

* **forward**: one flit per cycle, tagged with its VC and the per-(link, VC)
  sequence number the HBH rollback protocol uses;
* **forward control**: deadlock probes and activation signals — the paper
  sends these as regular flits through the (empty) retransmission-buffer
  path of blocked routers, so they are never blocked;
* **reverse**: credits and NACKs.  These are the "handshaking signals" of
  Section 4.6, protected by TMR voting per sample.

Each channel is a :class:`DelayLine` that its consumer pops directly
(``link.credits.pop_due(cycle)``).

Local links (NI <-> router) use the same machinery but are exempt from link
fault injection, like the paper's PE channel.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generic, List, Tuple, TypeVar

from repro.coding.parity import tmr_vote
from repro.noc.flit import Flit
from repro.types import Corruption, Direction

T = TypeVar("T")

#: ``@dataclass(**_SLOTTED)`` for the per-transfer signal records — purely
#: an allocation optimization, so it degrades gracefully on Python 3.9
#: where the dataclass option does not exist yet.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Shared empty result for the (dominant) no-delivery case; callers only
#: ever iterate the returned list, never mutate it.
_NOTHING_DUE: List = []


class DelayLine(Generic[T]):
    """A fixed-latency FIFO channel: items pushed at cycle ``t`` become
    visible to :meth:`pop_due` at cycle ``t + latency``."""

    __slots__ = ("latency", "_queue")

    def __init__(self, latency: int = 1):
        if latency < 1:
            raise ValueError("channel latency must be at least one cycle")
        self.latency = latency
        self._queue: Deque[Tuple[int, T]] = deque()

    def push(self, cycle: int, item: T) -> None:
        self._queue.append((cycle + self.latency, item))

    def pop_due(self, cycle: int) -> List[T]:
        queue = self._queue
        if not queue or queue[0][0] > cycle:
            return _NOTHING_DUE
        due = []
        while queue and queue[0][0] <= cycle:
            due.append(queue.popleft()[1])
        return due

    def peek_pending(self) -> List[T]:
        """All in-flight items (used by drain checks and tests)."""
        return [item for _, item in self._queue]

    def clear(self) -> int:
        """Discard all in-flight items, returning how many were dropped."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._queue)


@dataclass(**_SLOTTED)
class CreditSignal:
    """One buffer slot freed at the downstream input VC."""

    vc: int


@dataclass(**_SLOTTED)
class NackSignal:
    """Negative acknowledgement naming the expected sequence number.

    ``kind`` distinguishes the two NACK flavours the paper uses:

    * ``"link"`` — a corrupted flit: roll back and retransmit on the same
      route (Section 3.1);
    * ``"route"`` — a misrouted header detected by the receiver
      (Section 4.2): roll back, *recompute the route*, then retransmit.
    """

    vc: int
    seq: int
    kind: str = "link"


@dataclass(**_SLOTTED)
class ProbeSignal:
    """Deadlock probe / activation signal (Section 3.2.2).

    ``target_vc`` is the VC index of the suspected buffer at the *receiving*
    router's input port for this link; ``kind`` is ``"probe"`` or
    ``"activation"``; ``origin`` identifies the Rule-1 sender.
    """

    origin: int
    target_vc: int
    kind: str = "probe"
    hops: int = 0
    path: List[int] = field(default_factory=list)


@dataclass(**_SLOTTED)
class FlitTransfer:
    """A flit in flight on a link.

    ``corruption`` is the upset suffered *in transit* (crossbar and/or link);
    it lives on the transfer rather than the flit so that the clean copy in
    the sender's retransmission buffer is genuinely clean — in hardware the
    buffer is written from the transmitter's register, not from the wire.
    The receiver's check unit applies or discharges it on arrival.
    """

    vc: int
    seq: int
    flit: Flit
    corruption: Corruption = Corruption.NONE


class Link:
    """One direction of a channel between two routers (or a router and NI).

    Its four delay lines share the link's latency: a signal pushed at cycle
    ``t`` is due at ``t + latency``, and the consumer's receive phase, which
    runs every cycle, pops whatever is due.
    """

    __slots__ = (
        "src_node",
        "src_port",
        "dst_node",
        "dst_port",
        "is_local",
        "latency",
        "flits",
        "credits",
        "nacks",
        "control",
        "flit_traversals",
        "dead",
    )

    def __init__(
        self,
        src_node: int,
        src_port: Direction,
        dst_node: int,
        dst_port: Direction,
        is_local: bool = False,
        latency: int = 1,
    ):
        if latency < 1:
            raise ValueError("link latency must be at least one cycle")
        self.src_node = src_node
        self.src_port = src_port
        self.dst_node = dst_node
        self.dst_port = dst_port
        self.is_local = is_local
        #: Cycles a signal spends on the wire, both directions (TSVs > 1).
        self.latency = latency
        self.flits: DelayLine[FlitTransfer] = DelayLine(latency)
        self.credits: DelayLine[CreditSignal] = DelayLine(latency)
        self.nacks: DelayLine[NackSignal] = DelayLine(latency)
        self.control: DelayLine[ProbeSignal] = DelayLine(latency)
        #: Flits sent over the link's lifetime (for utilization/energy).
        self.flit_traversals = 0
        #: Permanently failed: all channels silently drop (see :meth:`kill`).
        self.dead = False

    # -- forward ----------------------------------------------------------

    def send_flit(
        self,
        cycle: int,
        vc: int,
        seq: int,
        flit: Flit,
        corruption: Corruption = Corruption.NONE,
    ) -> None:
        if self.dead:
            return
        flit.link_seq = seq
        self.flits.push(cycle, FlitTransfer(vc, seq, flit, corruption))
        self.flit_traversals += 1

    def send_probe(self, cycle: int, probe: ProbeSignal) -> None:
        if self.dead:
            return
        self.control.push(cycle, probe)

    # -- reverse ----------------------------------------------------------

    def send_credit(self, cycle: int, vc: int) -> None:
        if self.dead:
            return
        self.credits.push(cycle, CreditSignal(vc))

    def send_nack(self, cycle: int, nack: NackSignal) -> None:
        if self.dead:
            return
        self.nacks.push(cycle, nack)

    def kill(self) -> int:
        """Permanently fail the link.

        All four channels are flushed (a hard open drops whatever was on
        the wire) and every later send becomes a silent no-op — the flit is
        never delivered.  Returns the number of *forward flits* that were
        in flight and lost, so the caller can account them (reverse-channel
        signals vanish without accounting: the dead link's flow-control
        state is torn down anyway).
        """
        self.dead = True
        lost_flits = self.flits.clear()
        self.credits.clear()
        self.nacks.clear()
        self.control.clear()
        return lost_flits

    @property
    def is_idle(self) -> bool:
        return (
            len(self.flits) == 0
            and len(self.credits) == 0
            and len(self.nacks) == 0
            and len(self.control) == 0
        )

    def __repr__(self) -> str:
        kind = "local" if self.is_local else "mesh"
        return (
            f"Link({kind} {self.src_node}.{self.src_port.name} -> "
            f"{self.dst_node}.{self.dst_port.name})"
        )


class HandshakeChannel:
    """TMR-protected handshake line sampling (Section 4.6).

    Every reverse-channel signal sample passes through here.  With TMR on, a
    single glitched line is outvoted by the two clean copies, so the signal
    survives; with TMR off (ablation) a glitch destroys the sample — a lost
    credit leaks a buffer slot, a lost NACK delays error recovery until the
    receiver re-NACKs.
    """

    def __init__(self, tmr_enabled: bool = True):
        self.tmr_enabled = tmr_enabled
        self.glitches_masked = 0
        self.signals_lost = 0

    def sample(self, glitch: bool) -> bool:
        """Deliver one arriving signal through the (possibly glitched)
        lines; returns whether the receiver sees it."""
        if not glitch:
            return True
        if self.tmr_enabled:
            # One line flips; the other two outvote it.
            self.glitches_masked += 1
            return tmr_vote([False, True, True])
        self.signals_lost += 1
        return False
