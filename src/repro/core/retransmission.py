"""The transmission/retransmission buffer architecture of Figure 3.

Every output virtual channel owns an :class:`OutputChannel`, which bundles:

* the **credit counter** toward the downstream input VC buffer (the
  "transmission buffer" seen from this side),
* the **retransmission buffer** — a barrel-shift register holding the last
  ``depth`` flits sent, so that a NACK arriving up to ``depth`` cycles after
  a transmission can be served (Section 3.1 derives depth 3: link traversal
  + error check + NACK propagation),
* the **replay queue** — flits rolled back by a NACK, awaiting
  retransmission (they bypass the crossbar through the Figure 3 mux),
* the **absorption queue** — flits moved out of the upstream transmission
  buffer during deadlock recovery ("Retransmission Buffer with unsent data"
  in Figure 10); they are first transmissions, so they wait for credits,
* the **wormhole allocation state** (which input VC currently owns this
  output VC), which the VA writes and the AC unit reads.

The barrel shifter and the two queues share the physical ``depth`` slots in
hardware; we model the replay window and the absorption queue as separate
structures but enforce the combined capacity where the paper does (a node
may absorb at most ``depth`` flits during recovery).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

if TYPE_CHECKING:  # imported for annotations only (avoids a package cycle)
    from repro.noc.flit import Flit


class RetransmissionBuffer:
    """Barrel-shift register of the last ``depth`` transmitted flits.

    Entries are ``(sequence number, flit)``; storing a sequence number that
    is already present replaces it (a retransmitted flit re-enters the back
    of the shifter, exactly as Figure 10's thick-square flits do).
    """

    __slots__ = ("depth", "duplicate", "_entries", "_shadow", "corrupted_seqs")

    def __init__(self, depth: int, duplicate: bool = False):
        if depth < 1:
            raise ValueError("retransmission buffer depth must be positive")
        self.depth = depth
        #: Section 4.5's fool-proof option: keep a duplicate copy so an
        #: upset inside the buffer itself can be recovered.
        self.duplicate = duplicate
        self._entries: Deque[Tuple[int, Flit]] = deque()
        self._shadow: Optional[Deque[Tuple[int, Flit]]] = (
            deque() if duplicate else None
        )
        #: Sequence numbers whose stored copy suffered an in-buffer upset
        #: (Section 4.5).  Without duplicate buffers such a copy replays
        #: corrupt, producing the paper's retransmission loop.
        self.corrupted_seqs: set = set()

    def store(self, seq: int, flit: Flit) -> None:
        """Shift a just-transmitted flit into the buffer."""
        self._remove(seq)
        self.corrupted_seqs.discard(seq)
        self._entries.append((seq, flit))
        while len(self._entries) > self.depth:
            evicted_seq = self._entries.popleft()[0]
            self.corrupted_seqs.discard(evicted_seq)
        if self.duplicate:
            self._shadow = deque(
                (s, _copy_corruption_state(f)) for s, f in self._entries
            )

    def _remove(self, seq: int) -> None:
        for i, (s, _) in enumerate(self._entries):
            if s == seq:
                del self._entries[i]
                return

    def entries_from(self, seq: int) -> List[Tuple[int, Flit]]:
        """All held flits with sequence number >= ``seq``, oldest first."""
        return sorted(
            ((s, f) for s, f in self._entries if s >= seq), key=lambda e: e[0]
        )

    def get(self, seq: int) -> Optional[Flit]:
        for s, f in self._entries:
            if s == seq:
                return f
        return None

    def restore_from_duplicate(self, seq: int) -> Optional[Flit]:
        """Fetch the shadow copy of a flit (clears buffer-upset corruption)."""
        if self._shadow is None:
            return None
        for s, f in self._shadow:
            if s == seq:
                return f
        return None

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def flits(self) -> List[Flit]:
        return [f for _, f in self._entries]

    def clear(self) -> None:
        self._entries.clear()
        if self._shadow is not None:
            self._shadow.clear()
        self.corrupted_seqs.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _copy_corruption_state(flit: "Flit") -> "Flit":
    """Snapshot a flit for the duplicate buffer.

    Only the corruption tag can diverge between the copies (a buffer upset
    corrupts one copy); sharing the rest of the flit is safe because the
    simulator never mutates those fields while a flit sits in a buffer.
    """
    from copy import copy

    return copy(flit)


class OutputChannel:
    """State of one output virtual channel (see module docstring)."""

    __slots__ = (
        "port",
        "vc",
        "credits",
        "allocated_to",
        "last_owner",
        "next_seq",
        "retx",
        "replay_queue",
        "absorption_queue",
        "dead",
    )

    def __init__(self, port: int, vc: int, depth: int, duplicate: bool = False):
        self.port = port
        self.vc = vc
        self.credits = 0  # set by the router once the downstream depth is known
        #: Permanently failed (downstream VC buffer or link died); masked
        #: out of VA so no new wormhole can claim this channel.
        self.dead = False
        self.allocated_to: Optional[Tuple[int, int]] = None
        self.last_owner: Optional[Tuple[int, int]] = None
        self.next_seq = 0
        self.retx = RetransmissionBuffer(depth, duplicate=duplicate)
        #: Rolled-back flits awaiting retransmission (``(seq, flit)``).
        self.replay_queue: Deque[Tuple[int, Flit]] = deque()
        #: Recovery-mode absorbed flits awaiting their first transmission.
        self.absorption_queue: Deque[Flit] = deque()

    # -- allocation ---------------------------------------------------------

    @property
    def is_allocated(self) -> bool:
        return self.allocated_to is not None

    def allocate(self, owner: Tuple[int, int]) -> None:
        self.allocated_to = owner
        self.last_owner = owner

    def release(self) -> None:
        self.allocated_to = None

    # -- transmission -------------------------------------------------------

    def take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def rollback(self, seq: int) -> int:
        """Queue every sent flit with sequence >= ``seq`` for replay.

        Returns the number of flits queued.  Idempotent against duplicate
        NACKs: sequences already queued are not queued twice.
        """
        queued_seqs = {s for s, _ in self.replay_queue}
        added = 0
        for s, flit in self.retx.entries_from(seq):
            if s not in queued_seqs:
                self.replay_queue.append((s, flit))
                added += 1
        self.replay_queue = deque(sorted(self.replay_queue, key=lambda e: e[0]))
        return added

    def extract_rollback_flits(self, seq: int) -> List[Flit]:
        """Remove and return sent flits with sequence >= ``seq``.

        Used by the route-NACK path (Section 4.2), where rolled-back flits
        re-enter the *input* pipeline (the route must be recomputed) instead
        of being replayed on the same output.
        """
        entries = self.retx.entries_from(seq)
        for s, _ in entries:
            self.retx._remove(s)
        # Anything already queued for replay at those sequences is stale.
        self.replay_queue = deque(
            (s, f) for s, f in self.replay_queue if s < seq
        )
        return [f for _, f in entries]

    # -- recovery-mode absorption --------------------------------------------

    @property
    def absorption_capacity(self) -> int:
        """Free slots available to absorb flits during deadlock recovery."""
        return max(
            0,
            self.retx.depth - len(self.absorption_queue) - len(self.replay_queue),
        )

    def absorb(self, flit: Flit) -> None:
        if self.absorption_capacity <= 0:
            raise OverflowError("retransmission buffer absorption overflow")
        self.absorption_queue.append(flit)

    # -- introspection ------------------------------------------------------

    @property
    def has_pending_output(self) -> bool:
        return bool(self.replay_queue) or bool(self.absorption_queue)

    @property
    def telemetry_occupancy(self) -> int:
        """Occupied slots for the telemetry pressure gauge: replay and
        absorption queues plus the barrel shifter's live window."""
        return (
            len(self.replay_queue)
            + len(self.absorption_queue)
            + self.retx.occupancy
        )

    def __repr__(self) -> str:
        return (
            f"OutputChannel(p{self.port}v{self.vc} credits={self.credits}"
            f" alloc={self.allocated_to} replay={len(self.replay_queue)}"
            f" absorb={len(self.absorption_queue)})"
        )
