"""Statistics collection.

One :class:`StatsCollector` serves a whole simulation.  It distinguishes the
warm-up window from the measurement window the same way the paper does
(Section 2.2: latency and energy are averaged over ejected messages after
the warm-up messages): latency samples, energy events and utilization
samples recorded during warm-up are excluded from the reported averages.

Counters are plain named integers; every counter name used across the code
base is documented here so experiments can rely on them.  The catalogue is
kept in sync with the source mechanically: ``tests/test_counter_catalogue.py``
parses this table and greps ``src/`` for counting call sites, failing if
either side lists a name the other does not.

====================================  =========================================
counter                               incremented when
====================================  =========================================
``link_errors_corrected``             an HBH retransmission round or an
                                      in-place FEC correction recovers a link
                                      upset
``fec_corrections``                   an SEC decode corrects a single-bit link
                                      upset in place (FEC scheme, no rollback)
``rt_errors_corrected``               a misdirected header is caught (locally
                                      by the VA state check or remotely via a
                                      route-NACK)
``sa_errors_corrected``               the AC unit invalidates an erroneous SA
                                      grant
``va_errors_corrected``               the AC unit invalidates an erroneous VA
                                      grant
``sa_misdirected_flits``              an undetected SA fault actually sends a
                                      flit out the wrong port (AC-off
                                      ablation)
``retransmission_rounds``             a NACK triggers a rollback/replay
``flits_retransmitted``               each flit replayed from a
                                      retransmission buffer
``stale_replay_flits_discarded``      a replay-queue flit is dropped because a
                                      later rollback superseded it
``retransmission_giveups``            the receiver accepts a corrupt flit
                                      after ``max_nack_retries`` NACKs (the
                                      Section 4.5 endless-loop escape hatch)
``retx_buffer_restores``              a corrupted retransmission-buffer copy
                                      is restored from its Section 4.5
                                      duplicate
``route_nacks_sent``                  a receiver NACKs a misrouted header back
                                      for route recomputation (Section 4.2)
``route_nack_rollbacks``              a route-NACK rolls the sender's output
                                      channel back
``route_nack_flits_restored``         each flit a route-NACK returns to the
                                      sender's input pipeline for re-routing
``route_nack_orphans``                a route-NACK arrives after the rolled-
                                      back flits already left the buffer
                                      window
``flits_dropped``                     receiver-side drops (corrupt or
                                      out-of-window)
``flits_ejected``                     each flit delivered to a destination NI
``packets_misrouted``                 a packet reaches a wrong destination NI
``packets_reforwarded``               a misdelivered packet is re-sent onward
``packets_delivered_corrupt``         delivered with residual corruption
``packets_lost``                      undeliverable (AC-off ablations,
                                      give-ups)
``e2e_retransmissions``               source retransmits a whole packet (E2E)
``payload_ecc_checks``                a destination verifies a flit's real
                                      Hamming codeword (payload ECC mode)
``payload_ecc_mismatches``            the bit-level decode class disagrees
                                      with the symbolic corruption tag
``probes_sent``                       Rule-1 probes launched
``probes_discarded``                  Rule-2 discards (no deadlock on that
                                      path)
``probes_hop_limited``                a probe exceeds its hop limit and is
                                      dropped
``deadlocks_detected``                probes returning to their origin
``deadlocks_resolved_before_recovery``  the suspected VC drains on its own
                                      before recovery engages
``recovery_activations``              routers switching into recovery mode
``recovery_forwards``                 flits absorbed into retransmission
                                      buffers during recovery (the Figure 10
                                      moves)
``handshake_glitches_masked``         TMR voting outvotes a glitched
                                      handshake line (Section 4.6)
``handshake_signals_lost``            a handshake glitch destroys a sample
                                      (TMR-off ablation): a credit leaks or a
                                      NACK is delayed
``permanent_faults_applied``          a scheduled permanent fault (dead link,
                                      router, or VC buffer) takes effect
``permanent_fault_flits_dropped``     each flit destroyed by a permanent
                                      fault (in flight on a dead link, wedged
                                      in a dead buffer, or flushed from a
                                      torn-down wormhole)
``packets_unroutable``                a header is dropped because no route to
                                      its destination survives on the degraded
                                      topology
``wormholes_orphaned``                a wormhole is cut mid-packet by a
                                      permanent fault and its remaining flits
                                      can never arrive
``reroute_recomputations``            the fault-aware routing tables are
                                      rebuilt after a topology change
``intermittent_bursts_started``       an intermittent site's on-window opens
                                      (the Markov burst process toggles on)
``intermittent_strikes``              a burst corrupts a flit traversing its
                                      link (on-window strike, docs/FAULTS.md)
``wear_out_escalations``              an intermittent site's accumulated
                                      stress crosses the wear-out threshold
                                      and its link dies permanently
``checkpoints_written``               the auto-checkpoint schedule snapshots
                                      the run (counted before pickling, so a
                                      resumed run's counters still match an
                                      uninterrupted one — see
                                      docs/CHECKPOINTING.md)
====================================  =========================================
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class LatencyStats:
    """Streaming mean/min/max (plus optional sample retention)."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    keep_samples: bool = False
    samples: List[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self.keep_samples:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """q in [0, 1]; requires ``keep_samples``."""
        if not self.keep_samples:
            raise ValueError("percentiles require keep_samples=True")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, max(0, int(q * (len(ordered) - 1))))
        return ordered[idx]


@dataclass
class UtilizationTracker:
    """Time-averaged occupancy/capacity ratio (Figures 8 and 9)."""

    slot_cycles_occupied: float = 0.0
    slot_cycles_total: float = 0.0

    def record(self, occupied: float, capacity: float) -> None:
        self.slot_cycles_occupied += occupied
        self.slot_cycles_total += capacity

    @property
    def utilization(self) -> float:
        if self.slot_cycles_total == 0:
            return 0.0
        return self.slot_cycles_occupied / self.slot_cycles_total


class StatsCollector:
    """All measurement state of one simulation run."""

    def __init__(self, keep_latency_samples: bool = False):
        self.counters: Dict[str, int] = defaultdict(int)
        self.latency = LatencyStats(keep_samples=keep_latency_samples)
        self.hops = LatencyStats()
        self.tx_utilization = UtilizationTracker()
        self.retx_utilization = UtilizationTracker()
        #: Energy-event counters (multiplied by per-event energies by the
        #: power model).  Only events inside the measurement window count.
        self.energy_events: Dict[str, int] = defaultdict(int)
        self.measuring = False
        self.packets_injected = 0
        self.packets_ejected = 0
        self.measured_packets = 0
        self.cycles = 0

    # -- window control ----------------------------------------------------

    def start_measurement(self) -> None:
        self.measuring = True

    # -- events -----------------------------------------------------------

    def count(self, name: str, increment: int = 1) -> None:
        self.counters[name] += increment

    def energy_event(self, name: str, increment: int = 1) -> None:
        if self.measuring:
            self.energy_events[name] += increment

    def record_ejection(self, latency: float, hops: int) -> None:
        self.packets_ejected += 1
        if self.measuring:
            self.measured_packets += 1
            self.latency.record(latency)
            self.hops.record(hops)

    def record_utilization(
        self,
        tx_occupied: float,
        tx_capacity: float,
        retx_occupied: float,
        retx_capacity: float,
    ) -> None:
        if self.measuring:
            self.tx_utilization.record(tx_occupied, tx_capacity)
            self.retx_utilization.record(retx_occupied, retx_capacity)

    # -- summaries ---------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self, names) -> Dict[str, int]:
        """Current values of the named counters (0 when never incremented).

        Pure read — the telemetry sampler polls this every sampling tick, so
        it must not create defaultdict entries as a side effect.
        """
        counters = self.counters
        return {name: counters.get(name, 0) for name in names}
