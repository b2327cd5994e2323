"""Integration tests for probe-based deadlock detection and recovery.

These exercise the full stack: scripted source-routed packets form a true
cyclic deadlock; the probes must confirm it (no false positives), the
activation must switch the cycle into recovery mode, and the buffer
shifting must deliver every packet.
"""

import pytest

from repro.experiments.deadlock_demo import (
    CYCLE_SPECS,
    run_deadlock_demo,
    run_worst_case_demo,
)
from repro.config import NoCConfig, SimulationConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.types import Direction, RoutingAlgorithm


class TestCyclicDeadlock:
    def test_without_recovery_network_deadlocks(self):
        outcome = run_deadlock_demo(recovery=False, max_cycles=600)
        assert outcome.delivered == 0
        assert not outcome.deadlock_broken

    def test_recovery_breaks_deadlock(self):
        outcome = run_deadlock_demo(recovery=True)
        assert outcome.deadlock_broken
        assert outcome.cycles_to_resolution is not None
        assert outcome.deadlocks_detected >= 1
        assert outcome.probes_sent >= 1
        assert outcome.recovery_forwards >= 1  # flits moved into retx buffers

    def test_scenario_satisfies_eq1(self):
        outcome = run_deadlock_demo(recovery=True)
        assert outcome.satisfies_eq1

    def test_worst_case_with_followers(self):
        blocked = run_worst_case_demo(recovery=False, max_cycles=600)
        assert not blocked.deadlock_broken
        recovered = run_worst_case_demo(recovery=True)
        assert recovered.deadlock_broken

    def test_recovery_is_deterministic(self):
        a = run_deadlock_demo(recovery=True)
        b = run_deadlock_demo(recovery=True)
        assert a.cycles_to_resolution == b.cycles_to_resolution


class TestNoFalsePositives:
    def _long_chain_network(self, threshold=6):
        # Deliberately under-provisioned recovery buffers (T=2 < M=8): this
        # scenario never deadlocks, so recovery is never asked to deliver on
        # the Eq. 1 guarantee — but the construction-time advisory fires.
        with pytest.warns(UserWarning, match="NOC001"):
            noc = NoCConfig(
                shape=(4, 1),
                num_vcs=1,
                vc_buffer_depth=2,
                flits_per_packet=8,
                routing=RoutingAlgorithm.SOURCE,
                deadlock_recovery_enabled=True,
                deadlock_threshold=threshold,
            )
        return Network(SimulationConfig(noc=noc))

    def test_plain_congestion_is_not_a_deadlock(self):
        """A long blocking chain with no cycle: probes launch (the flits
        block past C_thres) but must be discarded at the chain's head —
        "the probing technique will first assess the situation to prevent
        the occurrence of any false positives"."""
        net = self._long_chain_network()
        # Several long packets all streaming east into node 3's NI: heavy
        # blocking, zero cyclic dependency.
        for pid, src in enumerate((0, 0, 1, 1, 2)):
            hops = [Direction.EAST] * (3 - src)
            net.interfaces[src].enqueue(
                Packet(pid, src=src, dst=3, num_flits=8, injection_cycle=0,
                       source_route=hops)
            )
        for _ in range(1500):
            net.step()
            if net.delivered == 5:
                break
        net.finalize_stats()
        assert net.delivered == 5
        assert net.stats.counter("deadlocks_detected") == 0
        assert net.stats.counter("recovery_activations") == 0


class TestRecoveryUnderLoad:
    def test_fully_adaptive_routing_with_recovery_delivers(self):
        """Minimal fully-adaptive routing has no escape channels; with the
        recovery scheme enabled a saturated network must still make
        progress.  (This is the paper's motivating use case: recovery
        instead of restricted routing.)"""
        noc = NoCConfig(
            shape=(4, 4),
            num_vcs=2,
            routing=RoutingAlgorithm.FULLY_ADAPTIVE,
            deadlock_recovery_enabled=True,
            deadlock_threshold=24,
        )
        from repro.config import WorkloadConfig

        config = SimulationConfig(
            noc=noc,
            workload=WorkloadConfig(
                injection_rate=0.5,
                num_messages=400,
                warmup_messages=50,
                max_cycles=30_000,
                seed=5,
            ),
        )
        from repro.noc.simulator import run_simulation

        result = run_simulation(config)
        assert result.packets_delivered >= 400
        assert not result.hit_cycle_limit
