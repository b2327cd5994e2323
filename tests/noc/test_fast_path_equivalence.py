"""Bit-for-bit equivalence of the activity-driven cycle loop.

The activity-driven fast path (``Network._step_active``) must be a pure
scheduling optimization relative to the reference polling loop
(``Network._step_full``, swapped in by ``tests.conftest.reference_loop``): skipping idle components may never change
*any* observable of a run.  Because the fault injector draws from one shared
RNG stream, even a single extra or missing draw diverges every subsequent
fault — so these tests compare full :class:`SimulationResult` serializations
(every counter, latency, hop, energy event) between the two loops across
routing algorithms, fault sites, deadlock recovery and protection schemes.

They are the guard the reference loop exists for: any change to the hot path must keep
this module green (see docs/PERFORMANCE.md).
"""

import dataclasses

import pytest

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    WearOutConfig,
)
from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.simulator import run_simulation
from repro.noc.trace import PacketTracer
from repro.serialization import result_to_dict
from repro.types import Direction, FaultSite, LinkProtection, RoutingAlgorithm
from tests.conftest import reference_loop

ALL_SITES = {site: 0.002 for site in FaultSite}


def _config(**kw):
    noc = NoCConfig(
        shape=(4, 4),
        routing=kw.get("routing", RoutingAlgorithm.XY),
        link_protection=kw.get("protection", LinkProtection.HBH),
        deadlock_recovery_enabled=kw.get("deadlock_recovery", False),
        deadlock_threshold=kw.get("deadlock_threshold", 32),
        retx_buffer_depth=kw.get("retx_depth", 3),
    )
    return SimulationConfig(
        noc=noc,
        faults=FaultConfig(
            rates=kw.get("rates", {}),
            seed=kw.get("seed", 42),
            permanent=kw.get("permanent", PermanentFaultSchedule.empty()),
            intermittent=kw.get(
                "intermittent", IntermittentFaultSchedule.empty()
            ),
            wear_out=kw.get("wear_out", None),
        ),
        workload=WorkloadConfig(
            injection_rate=kw.get("rate", 0.05),
            num_messages=kw.get("messages", 120),
            warmup_messages=20,
            max_cycles=50_000,
        ),
        invariant_checks=kw.get("invariant_checks", False),
    )


def _observables(config, activity_driven=True):
    """Everything a run reports, minus the config echo."""
    with reference_loop(not activity_driven):
        result = result_to_dict(run_simulation(config))
    result.pop("config")
    return result


def assert_equivalent(**kw):
    config = _config(**kw)
    assert _observables(config, True) == _observables(config, False)


SCENARIOS = {
    "xy_fault_free": dict(),
    "xy_link_faults": dict(rates={FaultSite.LINK: 0.01}),
    "west_first_all_fault_sites": dict(
        routing=RoutingAlgorithm.WEST_FIRST, rates=ALL_SITES
    ),
    "adaptive_deadlock_recovery": dict(
        routing=RoutingAlgorithm.FULLY_ADAPTIVE,
        deadlock_recovery=True,
        deadlock_threshold=16,
        retx_depth=8,
        rates={FaultSite.LINK: 0.005},
        rate=0.30,
        messages=200,
    ),
    "e2e_protection": dict(
        protection=LinkProtection.E2E, rates={FaultSite.LINK: 0.01}
    ),
    "fec_protection": dict(
        protection=LinkProtection.FEC, rates={FaultSite.LINK: 0.01}
    ),
    "xy_all_sites_alt_seed": dict(rates=ALL_SITES, seed=7, rate=0.15),
    # Permanent faults must not perturb the RNG stream or activity sets:
    # the teardown draws no randomness and wakes the same components.
    "permanent_link_kill_mid_run": dict(
        permanent=PermanentFaultSchedule.of(
            PermanentFault("link", 5, Direction.EAST, cycle=200)
        ),
        rate=0.15,
        messages=200,
    ),
    "permanent_router_kill_with_transients": dict(
        permanent=PermanentFaultSchedule.of(
            PermanentFault("router", 10, cycle=250)
        ),
        rates={FaultSite.LINK: 0.005},
        rate=0.20,
        messages=200,
    ),
    "permanent_storm_doa_and_vc": dict(
        permanent=PermanentFaultSchedule.of(
            PermanentFault("link", 9, Direction.NORTH),
            PermanentFault("vc", 6, Direction.SOUTH, vc=1, cycle=150),
            PermanentFault("link", 1, Direction.EAST, cycle=300),
        ),
        rates=ALL_SITES,
        rate=0.25,
        messages=250,
    ),
    # Intermittent bursts draw from per-site RNG streams; the shared
    # injector stream and the activity sets must be untouched by them.
    "intermittent_bursts": dict(
        intermittent=IntermittentFaultSchedule.of(
            IntermittentFault(5, Direction.EAST, 0.4, 25.0, 60.0),
            IntermittentFault(10, Direction.NORTH, 0.6, 15.0, 40.0, start=100),
        ),
        rate=0.15,
        messages=200,
    ),
    "intermittent_with_transients_and_wear_out": dict(
        intermittent=IntermittentFaultSchedule.of(
            IntermittentFault(6, Direction.SOUTH, 0.5, 30.0, 50.0),
            IntermittentFault(9, Direction.WEST, 0.5, 30.0, 50.0),
        ),
        wear_out=WearOutConfig(threshold=12.0),
        rates={FaultSite.LINK: 0.005},
        rate=0.20,
        messages=200,
    ),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fast_path_is_bit_for_bit_equivalent(scenario):
    assert_equivalent(**SCENARIOS[scenario])


def test_equivalence_holds_under_invariant_sanitizer():
    """The SIM10x sanitizer sees identical legal state on both loops."""
    assert_equivalent(
        rates={FaultSite.LINK: 0.01}, invariant_checks=True, messages=60
    )


def test_idle_components_are_actually_skipped(monkeypatch):
    """On an empty mesh the fast path must not poll a single router."""
    from repro.noc import router as router_mod

    calls = {"compute": 0, "receive": 0}
    real_compute = router_mod.Router.compute
    real_receive = router_mod.Router.receive

    def counting_compute(self, cycle):
        calls["compute"] += 1
        return real_compute(self, cycle)

    def counting_receive(self, cycle):
        calls["receive"] += 1
        return real_receive(self, cycle)

    monkeypatch.setattr(router_mod.Router, "compute", counting_compute)
    monkeypatch.setattr(router_mod.Router, "receive", counting_receive)

    net = Network(SimulationConfig(noc=NoCConfig(shape=(4, 4))))
    for _ in range(100):
        net.step()
    assert calls == {"compute": 0, "receive": 0}

    # The full loop polls every router every cycle — the baseline the fast
    # path removes.
    net_full = Network(SimulationConfig(noc=NoCConfig(shape=(4, 4))))
    with reference_loop():
        for _ in range(100):
            net_full.step()
    assert calls["compute"] == 100 * 16


def test_activity_invariants_hold_every_cycle():
    """Active sets always cover live work, even under heavy faults."""
    config = _config(
        routing=RoutingAlgorithm.FULLY_ADAPTIVE,
        deadlock_recovery=True,
        deadlock_threshold=16,
        retx_depth=8,
        rates=ALL_SITES,
        rate=0.25,
    )
    net = Network(config)
    import random

    rng = random.Random(3)
    pid = 0
    for node in range(16):
        for _ in range(4):
            dst = rng.randrange(15)
            dst = dst if dst < node else dst + 1
            net.interfaces[node].enqueue(Packet(pid, node, dst, 4, 0))
            pid += 1
    for _ in range(600):
        net.step()
        net.verify_activity_invariants()
    assert net.completed > 0


def test_packet_tracer_sees_identical_itineraries():
    """PacketTracer rides on ``network.step()`` unchanged on both loops."""

    def traced_itinerary(activity_driven):
        net = Network(SimulationConfig(noc=NoCConfig(shape=(4, 4))))
        net.interfaces[0].enqueue(Packet(0, 0, 15, 4, 0))
        net.interfaces[5].enqueue(Packet(1, 5, 2, 4, 0))
        tracer = PacketTracer(net, watch=[0, 1])
        with reference_loop(not activity_driven):
            assert tracer.run_until_delivered(2) is not None
        return [
            [
                (s.cycle, s.flit_seq, s.location)
                for s in tracer.trace(pid).sightings
            ]
            for pid in (0, 1)
        ]

    assert traced_itinerary(True) == traced_itinerary(False)


# -- telemetry equivalence ---------------------------------------------------
#
# With telemetry enabled, both loops must produce (a) the same simulation
# observables as each other AND as the telemetry-off run, and (b) identical
# event streams and sampled series.  Events fire only inside state changes
# that are themselves loop-invariant, and sampling is a pure read at fixed
# cycles, so any divergence here means a publish site leaked into scheduling.

from repro.telemetry import TelemetryConfig  # noqa: E402

TELEMETRY_SCENARIOS = [
    "xy_link_faults",
    "west_first_all_fault_sites",
    "adaptive_deadlock_recovery",
    "permanent_storm_doa_and_vc",
]


def _telemetry_config(**kw):
    return dataclasses.replace(
        _config(**kw),
        telemetry=TelemetryConfig(enabled=True, metrics_interval=50),
    )


def _telemetry_streams(config, activity_driven=True):
    with reference_loop(not activity_driven):
        result = run_simulation(config)
    report = result.telemetry
    observables = result_to_dict(result)
    observables.pop("config")
    observables.pop("telemetry", None)
    events = [
        (e.cycle, e.kind, e.node, tuple(sorted(e.data.items())))
        for e in report.events
    ]
    return observables, events, report.series


@pytest.mark.parametrize("scenario", TELEMETRY_SCENARIOS)
def test_telemetry_streams_are_loop_invariant(scenario):
    kw = SCENARIOS[scenario]
    fast = _telemetry_streams(_telemetry_config(**kw), True)
    full = _telemetry_streams(_telemetry_config(**kw), False)
    assert fast[0] == full[0]  # observables
    assert fast[1] == full[1]  # event stream
    assert fast[2] == full[2]  # sampled series


@pytest.mark.parametrize("activity_driven", [True, False])
def test_telemetry_does_not_perturb_observables(activity_driven):
    """Telemetry on vs off: identical results on either loop."""
    kw = SCENARIOS["xy_all_sites_alt_seed"]
    with_tel = _telemetry_streams(_telemetry_config(**kw), activity_driven)[0]
    without = _observables(_config(**kw), activity_driven)
    assert with_tel == without


# -- batched-kernel equivalence ----------------------------------------------
#
# ``backend="batched"`` swaps the object cycle loop for the struct-of-arrays
# kernel (repro.noc.kernel).  Inside its domain the kernel must be bit-for-bit
# equivalent — every counter, latency, hop, energy tally, telemetry event and
# series sample.  Outside its domain the network silently falls back to the
# object loop, so the flag must *never* change results on any config.

from repro import api  # noqa: E402
from repro.noc.kernel import kernel_supports  # noqa: E402

#: In-domain scenarios, expressed as api.load_config overrides on a 4x4
#: baseline.  Together they cover every batchable axis: all three supported
#: routing algorithms, both topologies, every pipeline depth, single-flit
#: packets, VC/depth extremes, utilization collection and both supported
#: protection schemes.
BATCHED_SCENARIOS = {
    "xy_baseline": dict(),
    "west_first_contention": dict(routing="west_first", rate=0.3, messages=200),
    "fully_adaptive_contention": dict(
        routing="fully_adaptive", rate=0.35, messages=200
    ),
    "torus_xy": dict(topology="torus", rate=0.15),
    "torus_west_first": dict(topology="torus", routing="west_first", rate=0.15),
    "single_stage_pipeline": dict(pipeline_stages=1),
    "two_stage_pipeline": dict(pipeline_stages=2),
    "four_stage_pipeline": dict(pipeline_stages=4),
    "single_flit_packets": dict(flits=1, messages=150),
    "one_vc_shallow_buffers": dict(vcs=1, buffer_depth=2, rate=0.15),
    "many_vcs_deep_buffers": dict(vcs=4, buffer_depth=8, rate=0.25),
    "utilization_collection": dict(collect_utilization=True, rate=0.2),
    "unprotected_links": dict(scheme="none", rate=0.15),
}


def _backend_observables(backend, **kw):
    base = dict(shape=(4, 4), rate=0.05, messages=120, warmup=20, seed=11)
    base.update(kw)
    result = result_to_dict(api.run(api.load_config(backend=backend, **base)))
    assert result.pop("config")["backend"] == backend
    return result


@pytest.mark.filterwarnings("ignore:NOC008")  # torus_xy: advisory, no wedge
@pytest.mark.parametrize("scenario", BATCHED_SCENARIOS)
def test_batched_kernel_is_bit_for_bit_equivalent(scenario):
    kw = BATCHED_SCENARIOS[scenario]
    assert _backend_observables("batched", **kw) == _backend_observables(
        "object", **kw
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batched_flag_never_changes_results(scenario):
    """Requesting the batched backend on *any* config — including every
    fault/recovery scenario above, all outside the batchable domain — must
    leave results untouched (the out-of-domain path falls back silently)."""
    kw = SCENARIOS[scenario]
    batched = dataclasses.replace(_config(**kw), backend="batched")
    assert _observables(batched) == _observables(_config(**kw))


def test_out_of_domain_configs_fall_back_to_the_object_loop():
    config = dataclasses.replace(
        _config(rates={FaultSite.LINK: 0.01}), backend="batched"
    )
    net = Network(config)
    assert net.kernel is None  # fell back
    in_domain = dataclasses.replace(_config(), backend="batched")
    assert Network(in_domain).kernel is not None


def test_kernel_supports_names_each_unsupported_feature():
    assert kernel_supports(_config()) is None
    cases = [
        (dict(rates={FaultSite.LINK: 0.01}), "transient"),
        (
            dict(
                permanent=PermanentFaultSchedule.of(
                    PermanentFault("link", 5, Direction.EAST, cycle=200)
                )
            ),
            "permanent",
        ),
        (
            dict(
                intermittent=IntermittentFaultSchedule.of(
                    IntermittentFault(5, Direction.EAST, 0.4, 25.0, 60.0)
                )
            ),
            "intermittent",
        ),
        (dict(protection=LinkProtection.E2E), "end-to-end"),
        (dict(deadlock_recovery=True), "deadlock"),
        (dict(invariant_checks=True), "sanitizer"),
    ]
    for kw, needle in cases:
        reason = kernel_supports(_config(**kw))
        assert reason is not None and needle in reason
    ecc = dataclasses.replace(_config(), payload_ecc_check=True)
    assert "ECC" in kernel_supports(ecc)


@pytest.mark.parametrize(
    "scenario", ["xy_baseline", "many_vcs_deep_buffers", "torus_west_first"]
)
def test_batched_telemetry_is_byte_identical(scenario, tmp_path):
    """Events, sampled series and the NDJSON export itself must match the
    object backend byte for byte (KernelSampler contract)."""
    from repro.telemetry import write_ndjson

    base = dict(
        shape=(4, 4),
        rate=0.1,
        messages=150,
        warmup=20,
        seed=23,
        telemetry=True,
        metrics_interval=20,
    )
    base.update(BATCHED_SCENARIOS[scenario])
    exports = {}
    for backend in ("object", "batched"):
        result = api.run(api.load_config(backend=backend, **base))
        path = tmp_path / f"{backend}.ndjson"
        write_ndjson(result.telemetry, path)
        exports[backend] = path.read_bytes()
    assert exports["object"] == exports["batched"]


def test_packet_tracer_refuses_a_batched_network():
    config = dataclasses.replace(_config(), backend="batched")
    net = Network(config)
    assert net.kernel is not None
    with pytest.raises(ValueError, match="backend='object'"):
        PacketTracer(net, watch=[0])


def test_serialization_round_trips_the_backend():
    from repro.serialization import config_from_dict, config_to_dict

    for backend in ("object", "batched"):
        config = SimulationConfig(backend=backend)
        assert config_from_dict(config_to_dict(config)).backend == backend
    # Older serialized configs (no key) default to the object backend.
    legacy = config_to_dict(SimulationConfig())
    legacy.pop("backend")
    assert config_from_dict(legacy).backend == "object"
