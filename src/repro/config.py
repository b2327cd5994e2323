"""Configuration dataclasses for the simulator and experiments.

All configuration is immutable (frozen dataclasses) so that a config object
can be shared between a network, its statistics collectors and an experiment
harness without aliasing surprises.  Derived quantities are exposed as
properties.

The defaults reproduce the paper's simulation platform (Section 2.2):

* 64-node (8x8) mesh,
* 3-stage pipelined routers,
* 5 physical channels per router (N/E/S/W + PE),
* 3 virtual channels per physical channel,
* 4 flits per packet,
* single-cycle link traversal,
* uniform injection at a configurable rate (flits/node/cycle).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.faults.intermittent import IntermittentFaultSchedule, WearOutConfig
from repro.faults.permanent import PermanentFaultSchedule
from repro.telemetry.config import TelemetryConfig
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm

#: Number of physical channels of a 2D mesh router (N, E, S, W, LOCAL).
#: 3D routers have ``2 * ndim + 1 = 7`` ports; use ``NoCConfig.num_ports``.
NUM_PORTS = 5

#: Link-latency specification: uniform (int) or one entry per axis.
LatencySpec = Union[int, Tuple[int, ...]]


def parse_shape(value: Union[str, Sequence[int]]) -> Tuple[int, ...]:
    """Normalize a platform shape to a tuple of ints.

    Accepts a tuple/list of ints or the CLI's ``WIDTHxHEIGHT[xDEPTH]``
    string grammar (``"8x8"``, ``"4x4x4"``).  Dimension-count and
    positivity validation is :class:`NoCConfig`'s job.
    """
    if isinstance(value, str):
        try:
            return tuple(int(part) for part in value.lower().split("x"))
        except ValueError:
            raise ValueError(
                f"bad shape {value!r}: expected WIDTHxHEIGHT[xDEPTH], "
                'e.g. "8x8" or "4x4x4"'
            ) from None
    if isinstance(value, Sequence):
        return tuple(int(v) for v in value)
    raise TypeError(f"cannot interpret {value!r} as a shape")


def parse_link_latency(value: Union[str, int, Sequence[int]]) -> LatencySpec:
    """Normalize a link-latency spec: an int (uniform), a per-axis
    sequence, or a string — ``"2"`` (uniform) / ``"1,1,2"`` (per axis)."""
    if isinstance(value, bool):
        raise TypeError("link latency must be an int, sequence or string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            parts = [int(p) for p in value.split(",")]
        except ValueError:
            raise ValueError(
                f"bad link latency {value!r}: expected an int or "
                'per-axis list, e.g. "2" or "1,1,2"'
            ) from None
        return parts[0] if len(parts) == 1 else tuple(parts)
    if isinstance(value, Sequence):
        return tuple(int(v) for v in value)
    raise TypeError(f"cannot interpret {value!r} as a link latency")


def min_retx_depth(link_latency: LatencySpec) -> int:
    """The shallowest ``retx_buffer_depth`` sound at ``link_latency``: the
    slowest link's NACK round trip (``2*latency + 1``), at least 3."""
    slowest = link_latency if isinstance(link_latency, int) else max(link_latency)
    return max(3, 2 * slowest + 1)


@dataclass(frozen=True)
class NoCConfig:
    """Static parameters of the simulated network.

    Parameters
    ----------
    shape:
        Mesh dimensions per axis, x first (the paper uses ``(8, 8)``; a 3D
        many-core stack is e.g. ``(4, 4, 4)``).
    topology:
        ``"mesh"`` (the paper's platform) or ``"torus"`` (extension: adds
        wraparound links; dimension-ordered routing then has cyclic channel
        dependencies across the wrap links, so pair it with
        ``deadlock_recovery_enabled`` — the recovery scheme substitutes for
        dateline VC classes).  A 3-axis shape is stored under the
        ``"mesh3d"``/``"torus3d"`` name whichever of the two was passed;
        the ``3d`` names with a 2-axis shape are rejected.
    link_latency:
        Cycles per link traversal: an int applies uniformly, a per-axis
        tuple models slower vertical TSV hops (e.g. ``(1, 1, 2)``).  A
        uniform tuple is stored as its int.
    num_vcs:
        Virtual channels per physical channel (paper: 3).
    vc_buffer_depth:
        Flit slots per input VC buffer (the "transmission buffer" of
        Section 3.2; paper's Figure 10 example uses 4).
    flits_per_packet:
        Packet length in flits (paper: 4).
    retx_buffer_depth:
        Depth of the per-VC barrel-shift retransmission buffer.  The paper
        derives 3 (link + check + NACK cycles); Section 3.2 notes a larger
        value may be needed when the buffers also serve deadlock recovery.
    pipeline_stages:
        Router pipeline depth (1, 2, 3 or 4).  Affects the recovery latency
        of intra-router logic errors (Section 4) and the header's per-hop
        latency. The paper simulates 3-stage routers.
    routing:
        Routing algorithm (paper's DT = XY, AD = WEST_FIRST).
    link_protection:
        Link-error handling scheme (Figure 5's comparison axis).
    deadlock_recovery_enabled:
        Enable the probe-based detection + retransmission-buffer recovery of
        Section 3.2.
    deadlock_threshold:
        ``C_thres``: blocked cycles before a router sends a probe (Rule 1).
    ac_unit_enabled:
        Enable the Allocation Comparator of Section 4.1/4.3.  Disabling it
        is the ablation: VA/SA logic faults then cause packet loss and
        stranded wormholes instead of 1-cycle corrections.
    duplicate_retx_buffers:
        The Section 4.5 "fool-proof" option: a duplicate copy protects the
        retransmission buffer itself against upsets at 2x buffer cost.
    handshake_tmr:
        Section 4.6: triple-modular-redundant handshake lines.  Disabling
        it is the ablation where a single glitch loses a credit or a NACK.
    max_nack_retries:
        After this many NACKs for the same flit the receiver accepts it
        corrupted instead of looping forever — the Section 4.5 "endless
        retransmission loop" escape hatch for a corrupted retransmission-
        buffer copy (without duplicate buffers).
    """

    shape: Tuple[int, ...] = (8, 8)
    topology: str = "mesh"
    num_vcs: int = 3
    vc_buffer_depth: int = 4
    flits_per_packet: int = 4
    retx_buffer_depth: int = 3
    pipeline_stages: int = 3
    routing: RoutingAlgorithm = RoutingAlgorithm.XY
    link_protection: LinkProtection = LinkProtection.HBH
    deadlock_recovery_enabled: bool = False
    deadlock_threshold: int = 32
    ac_unit_enabled: bool = True
    duplicate_retx_buffers: bool = False
    handshake_tmr: bool = True
    max_nack_retries: int = 8
    flit_width_bits: int = 64
    link_latency: LatencySpec = 1

    def __post_init__(self) -> None:
        # Equal platforms are equal objects: shape and latency tuples, the
        # topology name and a uniform latency each have one stored form.
        shape = tuple(int(d) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) not in (2, 3):
            raise ValueError(
                f"only 2D and 3D topologies are supported, got shape {shape}"
            )
        if any(d < 1 for d in shape):
            raise ValueError("mesh dimensions must be positive")
        if self.topology not in ("mesh", "torus", "mesh3d", "torus3d"):
            raise ValueError(
                "topology must be 'mesh', 'torus', 'mesh3d' or 'torus3d'"
            )
        if self.topology in ("mesh3d", "torus3d") and len(shape) != 3:
            raise ValueError(
                f"topology '{self.topology}' needs a 3-axis shape, got {shape}"
            )
        if len(shape) == 3 and not self.topology.endswith("3d"):
            object.__setattr__(self, "topology", self.topology + "3d")
        if self.is_torus and any(d < 3 for d in shape):
            raise ValueError(
                "a torus needs at least 3 nodes per dimension (smaller wrap "
                "rings degenerate into duplicate or self links)"
            )
        latency = self.link_latency
        if not isinstance(latency, int):
            latency = tuple(int(v) for v in latency)
            if len(latency) != len(shape):
                raise ValueError(
                    f"link_latency needs one entry per axis ({len(shape)}), "
                    f"got {len(latency)}"
                )
            if len(set(latency)) == 1:
                latency = latency[0]
            object.__setattr__(self, "link_latency", latency)
        latencies = (latency,) * len(shape) if isinstance(latency, int) else latency
        if any(v < 1 for v in latencies):
            raise ValueError("link latencies must be >= 1 cycle")
        if self.num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if self.vc_buffer_depth < 1:
            raise ValueError("VC buffers must hold at least one flit")
        if self.flits_per_packet < 1:
            raise ValueError("packets must contain at least one flit")
        if self.retx_buffer_depth < 3:
            raise ValueError(
                "the HBH scheme requires a >=3-deep retransmission buffer "
                "(link + error-check + NACK cycles, Section 3.1)"
            )
        required_retx = 2 * max(latencies) + 1
        if self.retx_buffer_depth < required_retx:
            raise ValueError(
                f"link latency {max(latencies)} stretches the HBH NACK "
                f"round trip: a sent flit must stay replayable for "
                f"2*latency+1 cycles, so retx_buffer_depth must be >= "
                f"{required_retx} (got {self.retx_buffer_depth})"
            )
        if self.pipeline_stages not in (1, 2, 3, 4):
            raise ValueError("supported router pipelines are 1-4 stages")
        if self.deadlock_recovery_enabled and not self.deadlock_buffer_bound_ok(1):
            # Under-provisioned recovery buffers surface as a wedged campaign
            # hours later; flag them at construction time.  A warning rather
            # than a rejection so ablations can still model the broken
            # configuration deliberately; `repro lint` reports the same
            # condition as the hard error NOC001.
            warnings.warn(
                "NOC001: deadlock recovery is enabled but the Eq. 1 buffer "
                f"bound is violated (T={self.vc_buffer_depth}, "
                f"R={self.retx_buffer_depth}, M={self.flits_per_packet}): "
                "recovery cannot guarantee a free slot and may wedge; see "
                "`repro lint` for the required depth",
                stacklevel=2,
            )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_torus(self) -> bool:
        return self.topology in ("torus", "torus3d")

    @property
    def shape_text(self) -> str:
        """The shape in the CLI grammar, e.g. ``"8x8"`` or ``"4x4x4"``."""
        return "x".join(str(d) for d in self.shape)

    @property
    def num_nodes(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def num_ports(self) -> int:
        """Router ports: two per axis plus LOCAL (5 in 2D, 7 in 3D)."""
        return 2 * self.ndim + 1

    @property
    def axis_latencies(self) -> Tuple[int, ...]:
        """``link_latency`` normalized to one entry per axis."""
        if isinstance(self.link_latency, int):
            return (self.link_latency,) * self.ndim
        return self.link_latency

    @property
    def max_link_latency(self) -> int:
        return max(self.axis_latencies)

    def replace(self, **changes: object) -> "NoCConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def deadlock_buffer_bound_ok(self, num_deadlocked_nodes: int) -> bool:
        """Check the Eq. 1 lower bound for this configuration.

        With homogeneous buffers, Eq. 1 reads
        ``n * (T + R) > M * ceil(T / M) * n`` where ``T`` is the transmission
        (VC) buffer depth, ``R`` the retransmission buffer depth and ``M``
        the packet length.  See :func:`repro.core.deadlock.buffer_lower_bound`
        for the general, heterogeneous form.
        """
        from repro.core.deadlock import buffer_lower_bound

        n = num_deadlocked_nodes
        return buffer_lower_bound(
            flits_per_packet=self.flits_per_packet,
            transmission_depths=[self.vc_buffer_depth] * n,
            retransmission_depths=[self.retx_buffer_depth] * n,
        )


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection rates, one per fault site.

    Each rate is the probability that a single *operation* at that site
    suffers a single-event upset:

    * ``LINK``: per flit per link traversal,
    * ``ROUTING``: per routing computation (headers only),
    * ``VC_ALLOC``: per successful VA grant,
    * ``SW_ALLOC``: per successful SA grant,
    * ``CROSSBAR``: per flit per crossbar traversal,
    * ``RETX_BUFFER``: per flit stored per cycle,
    * ``HANDSHAKE``: per handshake-line sample.

    ``link_multi_bit_fraction`` is the conditional probability that a link
    error affects more than one bit (and thus escapes SEC correction); the
    paper argues double errors are "not insignificant due to crosstalk" but
    still rare.

    ``permanent`` schedules hard faults — links/routers/VC buffers that die
    at a given cycle and stay dead (:mod:`repro.faults.permanent`).  These
    are deterministic (no RNG involvement), so the transient seed stream is
    unaffected by their presence.

    ``intermittent`` schedules bursty link sites
    (:mod:`repro.faults.intermittent`): per-site Markov on/off processes
    whose strikes draw from *per-site* RNG streams derived from ``seed`` —
    the shared transient stream is again unaffected.  ``wear_out``
    optionally escalates stressed intermittent sites into the permanent
    machinery (the full lifecycle is specified in docs/FAULTS.md).
    """

    rates: Mapping[FaultSite, float] = field(default_factory=dict)
    link_multi_bit_fraction: float = 0.1
    seed: int = 1
    permanent: PermanentFaultSchedule = field(
        default_factory=PermanentFaultSchedule.empty
    )
    intermittent: IntermittentFaultSchedule = field(
        default_factory=IntermittentFaultSchedule.empty
    )
    wear_out: Optional[WearOutConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.permanent, PermanentFaultSchedule):
            raise TypeError(
                "permanent must be a PermanentFaultSchedule, "
                f"got {type(self.permanent).__name__}"
            )
        if not isinstance(self.intermittent, IntermittentFaultSchedule):
            raise TypeError(
                "intermittent must be an IntermittentFaultSchedule, "
                f"got {type(self.intermittent).__name__}"
            )
        if self.wear_out is not None and not isinstance(self.wear_out, WearOutConfig):
            raise TypeError(
                "wear_out must be a WearOutConfig or None, "
                f"got {type(self.wear_out).__name__}"
            )
        if self.wear_out is not None and not self.intermittent:
            raise ValueError(
                "wear_out is configured but no intermittent sites exist to "
                "accumulate stress; add an IntermittentFaultSchedule"
            )
        for site, rate in self.rates.items():
            if not isinstance(site, FaultSite):
                raise TypeError(f"fault site must be a FaultSite, got {site!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate for {site} must be in [0, 1], got {rate}")
        if not 0.0 <= self.link_multi_bit_fraction <= 1.0:
            raise ValueError("link_multi_bit_fraction must be in [0, 1]")

    def rate(self, site: FaultSite) -> float:
        return self.rates.get(site, 0.0)

    @property
    def can_lose_components(self) -> bool:
        """Whether a hard death can occur during the run: a permanent
        schedule, or wear-out escalating an intermittent site into one."""
        return bool(self.permanent) or self.wear_out is not None

    @classmethod
    def fault_free(cls, seed: int = 1) -> "FaultConfig":
        return cls(rates={}, seed=seed)

    @classmethod
    def link_only(
        cls, rate: float, *, multi_bit_fraction: float = 0.1, seed: int = 1
    ) -> "FaultConfig":
        return cls(
            rates={FaultSite.LINK: rate},
            link_multi_bit_fraction=multi_bit_fraction,
            seed=seed,
        )

    @classmethod
    def single_site(cls, site: FaultSite, rate: float, *, seed: int = 1) -> "FaultConfig":
        return cls(rates={site: rate}, seed=seed)


@dataclass(frozen=True)
class WorkloadConfig:
    """Traffic workload parameters.

    ``injection_rate`` is in flits/node/cycle as in the paper; a node's
    packet inter-arrival time is ``flits_per_packet / injection_rate``
    cycles on average (Bernoulli per-cycle injection).
    """

    pattern: str = "uniform"
    injection_rate: float = 0.25
    num_messages: int = 2000
    warmup_messages: int = 500
    max_cycles: int = 200_000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.injection_rate <= 0:
            raise ValueError("injection rate must be positive")
        if self.num_messages <= 0:
            raise ValueError("must eject at least one message")
        if not 0 <= self.warmup_messages < self.num_messages:
            raise ValueError("warmup must be a proper prefix of the run")
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a :class:`repro.noc.simulator.Simulator` needs.

    ``payload_ecc_check`` enables the bit-level cross-validation mode: every
    flit carries a real extended-Hamming codeword, materialized upsets flip
    real bits, and destinations verify that the SEC/DED decode class matches
    the symbolic corruption tag (see :mod:`repro.coding.payload_check`).

    ``invariant_checks`` enables the cycle-level invariant sanitizer
    (:mod:`repro.analysis.sanitizer`): after every cycle the simulator
    asserts flit conservation, wormhole-allocation consistency and VC
    state-machine legality, raising on the first violation.  Costs roughly
    one full network walk per cycle; intended for debugging and CI, not
    campaigns.

    ``telemetry`` configures the observability layer
    (:mod:`repro.telemetry`): when enabled, components publish structured
    events to a shared bus and per-component gauges are sampled every
    ``metrics_interval`` cycles.  Disabled (the default) the network carries
    no bus at all and the cycle loops pay a single ``None`` check per cycle.

    ``backend`` selects the state representation the cycle loop runs on.
    ``"object"`` (the default) is the per-flit object model described in
    ``docs/ARCHITECTURE.md``; ``"batched"`` requests the struct-of-arrays
    kernel (:mod:`repro.noc.kernel`), which holds flit/VC/credit/
    retransmission state in preallocated flat arrays and processes routers
    as batched index operations per pipeline stage.  The kernel covers the
    fault-free common case; configurations outside its domain (transient
    fault rates, permanent schedules, E2E protection, source routing,
    deadlock recovery, payload ECC, invariant checks) silently fall back to
    the object model, so results are always bit-for-bit identical across
    backends (``docs/KERNEL.md``,
    ``tests/noc/test_fast_path_equivalence.py``).

    ``checkpoint_interval`` / ``checkpoint_path`` enable periodic crash-safe
    checkpointing (:mod:`repro.checkpoint`): every ``checkpoint_interval``
    cycles the simulator atomically rewrites ``checkpoint_path`` with a
    complete snapshot, from which ``load_checkpoint(path)`` continues the run
    bit-for-bit (see docs/CHECKPOINTING.md).  Both must be set together;
    the schedule is cycle-based so an interrupted-and-resumed run writes
    the same remaining checkpoints (and counts them identically) as an
    uninterrupted one.
    """

    noc: NoCConfig = field(default_factory=NoCConfig)
    faults: FaultConfig = field(default_factory=FaultConfig.fault_free)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    collect_power: bool = True
    collect_utilization: bool = False
    payload_ecc_check: bool = False
    invariant_checks: bool = False
    backend: str = "object"
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    checkpoint_interval: Optional[int] = None
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in ("object", "batched"):
            raise ValueError("backend must be 'object' or 'batched'")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1 cycle")
        if (self.checkpoint_interval is None) != (self.checkpoint_path is None):
            raise ValueError(
                "checkpoint_interval and checkpoint_path must be set together"
            )

    def replace(self, **changes: object) -> "SimulationConfig":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


#: Paper's published synthesis results for the generic 5-port router with 4
#: VCs per PC (Table 1), used to calibrate the analytic power/area model.
PAPER_ROUTER_POWER_MW = 119.55
PAPER_ROUTER_AREA_MM2 = 0.374862
PAPER_AC_POWER_MW = 2.02
PAPER_AC_AREA_MM2 = 0.004474
PAPER_CLOCK_HZ = 500e6
PAPER_SUPPLY_V = 1.0
