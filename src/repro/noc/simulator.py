"""The simulation driver.

Reproduces the paper's methodology (Section 2.2): traffic is injected at a
configured rate until a target number of messages has been ejected, the
first ``warmup_messages`` ejections are excluded from measurement, and the
run reports average message latency, energy per message and the error/
recovery counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import SimulationConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.power.energy import EnergyModel
from repro.telemetry.report import TelemetryReport
from repro.traffic.injection import PeriodicInjection
from repro.traffic.patterns import make_traffic_pattern


@dataclass
class SimulationResult:
    """Everything a run produced, in experiment-friendly form."""

    config: SimulationConfig
    cycles: int
    packets_injected: int
    packets_delivered: int
    packets_lost: int
    measured_packets: int
    avg_latency: float
    avg_hops: float
    energy_per_packet_nj: float
    tx_buffer_utilization: float
    retx_buffer_utilization: float
    counters: Dict[str, int] = field(default_factory=dict)
    energy_events: Dict[str, int] = field(default_factory=dict)
    hit_cycle_limit: bool = False
    #: The run's :class:`~repro.telemetry.report.TelemetryReport`, or None
    #: when telemetry was disabled.  Excluded from equality so telemetry-on
    #: and telemetry-off runs of the same config compare equal on the
    #: simulation observables.
    telemetry: Optional[TelemetryReport] = field(default=None, compare=False)

    @property
    def throughput_flits_per_node_cycle(self) -> float:
        """Accepted traffic over the whole run (delivered flits rate)."""
        if self.cycles == 0:
            return 0.0
        flits = self.packets_delivered * self.config.noc.flits_per_packet
        return flits / (self.cycles * self.config.noc.num_nodes)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def summary_lines(self) -> str:
        lines = [
            f"cycles                 {self.cycles}",
            f"packets injected       {self.packets_injected}",
            f"packets delivered      {self.packets_delivered}",
            f"packets lost           {self.packets_lost}",
            f"avg latency (cycles)   {self.avg_latency:.2f}",
            f"avg hops               {self.avg_hops:.2f}",
            f"energy/packet (nJ)     {self.energy_per_packet_nj:.4f}",
        ]
        return "\n".join(lines)


class Simulator:
    """Drives a :class:`Network` with generated traffic to completion."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.network = Network(config)
        self.rng = random.Random(config.workload.seed)
        self.pattern = make_traffic_pattern(
            config.workload.pattern, self.network.topology
        )
        self.injection = PeriodicInjection(
            config.noc.num_nodes,
            config.workload.injection_rate,
            config.noc.flits_per_packet,
        )
        self.energy_model = EnergyModel()
        #: No node fires before this cycle; the first poll draws the phases.
        self._traffic_due = 0.0
        self._next_packet_id = 0
        #: Set while :meth:`should_continue` trips the max_cycles guard, so
        #: a resumed run rebuilds the same result as an uninterrupted one.
        self._hit_limit = False
        #: Cycle this simulator was restored at by
        #: :func:`repro.checkpoint.load_checkpoint`, or None for a fresh
        #: run.  Deliberately *not* a stats counter: resumed and
        #: uninterrupted runs must produce identical counters.
        self.resumed_from_cycle: Optional[int] = None
        self.sanitizer = None
        if config.invariant_checks:
            from repro.analysis.sanitizer import InvariantSanitizer

            self.sanitizer = InvariantSanitizer(
                self.network, raise_on_violation=True
            )

    # -- traffic generation -----------------------------------------------------

    def _generate_traffic(self, cycle: int) -> None:
        if cycle < self._traffic_due:
            return
        for node in self.injection.fire_due(cycle, self.rng):
            dst = self.pattern.destination(node, self.rng)
            if dst is None:
                continue
            packet = Packet(
                packet_id=self._next_packet_id,
                src=node,
                dst=dst,
                num_flits=self.config.noc.flits_per_packet,
                injection_cycle=cycle,
            )
            self._next_packet_id += 1
            self.network.interfaces[node].enqueue(packet)
            self.network.stats.packets_injected += 1
        self._traffic_due = self.injection.next_fire()

    # -- the run loop --------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run (or, after :func:`repro.checkpoint.load_checkpoint`, finish)
        the closed-loop schedule and build the result.

        All loop state lives on the simulator/network objects — not in
        locals — so a checkpointed simulator resumes mid-run bit-for-bit.
        """
        while self.should_continue():
            self.advance()
        return self._build_result(self._hit_limit)

    def should_continue(self) -> bool:
        """True while the closed-loop run has cycles left to simulate."""
        workload = self.config.workload
        if self.network.completed >= workload.num_messages:
            return False
        if self.network.cycle >= workload.max_cycles:
            self._hit_limit = True
            return False
        return True

    def advance(self) -> None:
        """One closed-loop scheduling quantum: inject traffic, open the
        measurement window once warmup completes, step the network, run the
        optional sanitizer, and honour the auto-checkpoint schedule."""
        stats = self.network.stats
        self._generate_traffic(self.network.cycle)
        if (
            not stats.measuring
            and self.network.completed >= self.config.workload.warmup_messages
        ):
            stats.start_measurement()
        self.network.step()
        if self.sanitizer is not None:
            self._checked_sanitize()
        interval = self.config.checkpoint_interval
        if interval is not None and self.network.cycle % interval == 0:
            self.write_checkpoint()

    def run_to_cycle(self, cycle: int) -> None:
        """Advance the closed-loop schedule up to ``cycle`` (stopping early
        at the run's natural end) without building a result — the partial-run
        primitive behind the checkpoint tests."""
        while self.network.cycle < cycle and self.should_continue():
            self.advance()

    def write_checkpoint(self, path: Optional[str] = None) -> None:
        """Snapshot this simulator to ``path`` (default: the configured
        ``checkpoint_path``).  Counted as ``checkpoints_written`` *before*
        pickling, so the snapshot already includes its own write and a
        resumed run's counters match an uninterrupted one."""
        from repro.checkpoint import save_checkpoint

        target = path if path is not None else self.config.checkpoint_path
        if target is None:
            raise ValueError(
                "no checkpoint path: pass path= or set "
                "SimulationConfig.checkpoint_path"
            )
        self.network.stats.count("checkpoints_written")
        save_checkpoint(self, target)

    def run_cycles(self, cycles: int, measure_from: int = 0) -> SimulationResult:
        """Run a fixed number of cycles (open-loop experiments); past
        ``max_cycles`` it may raise as ``Network.run_cycles`` does."""
        stats = self.network.stats
        for i in range(cycles):
            if i == measure_from:
                stats.start_measurement()
            self._generate_traffic(self.network.cycle)
            self.network.step()
            if self.sanitizer is not None:
                self._checked_sanitize()
        return self._build_result(False)

    def _checked_sanitize(self) -> None:
        """Run the invariant sanitizer; on a violation, dump the telemetry
        flight recorder onto the exception (``exc.flight_record``) so the
        last events before the violation survive the crash."""
        try:
            self.sanitizer.check()
        except Exception as exc:
            bus = self.network.telemetry
            if bus is not None:
                bus.publish(
                    self.network.cycle,
                    "sanitizer_violation",
                    error=type(exc).__name__,
                    message=str(exc)[:200],
                )
                exc.flight_record = bus.flight_dicts()
            raise

    def _build_result(self, hit_limit: bool) -> SimulationResult:
        self.network.finalize_stats()
        stats = self.network.stats
        energy_events = dict(stats.energy_events)
        if stats.measured_packets:
            energy = self.energy_model.energy_per_packet_nj(
                energy_events, stats.measured_packets
            )
        else:
            energy = 0.0
        bus = self.network.telemetry
        telemetry_report = (
            bus.build_report(self.network) if bus is not None else None
        )
        return SimulationResult(
            config=self.config,
            cycles=stats.cycles,
            packets_injected=stats.packets_injected,
            packets_delivered=self.network.delivered,
            packets_lost=self.network.lost,
            measured_packets=stats.measured_packets,
            avg_latency=stats.latency.mean,
            avg_hops=stats.hops.mean,
            energy_per_packet_nj=energy,
            tx_buffer_utilization=stats.tx_utilization.utilization,
            retx_buffer_utilization=stats.retx_utilization.utilization,
            counters=dict(stats.counters),
            energy_events=energy_events,
            hit_cycle_limit=hit_limit,
            telemetry=telemetry_report,
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """One-call convenience wrapper used by examples and benchmarks."""
    return Simulator(config).run()
