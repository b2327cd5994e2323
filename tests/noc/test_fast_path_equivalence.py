"""Bit-for-bit equivalence of the two engines, and the object oracle.

The batched kernel (``repro.noc.kernel``) must be a pure speed
optimization relative to the object model's polling loop, the oracle:
swapping engines may never change *any* observable of a run.  Because the
fault injector draws from one shared RNG stream, even a single extra or
missing draw diverges every subsequent fault — so these tests compare full
:class:`SimulationResult` serializations (every counter, latency, hop,
energy event) and telemetry exports byte for byte.  ``SCENARIOS`` is the
repo's stress catalogue for the object loop (routing algorithms, fault
sites, deadlock recovery, protection schemes, permanent and intermittent
faults); ``BATCHED_SCENARIOS`` covers the kernel's domain.
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
from repro.noc.flit import Flit
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.simulator import Simulator, run_simulation
from repro.noc.trace import PacketTracer
from repro.serialization import result_to_dict
from repro.types import (
    Direction,
    FaultSite,
    FlitType,
    LinkProtection,
    RoutingAlgorithm,
)

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
        # The object loop: the oracle, and the engine out of the kernel's
        # domain.
        backend="object",
    )


def _observables(config):
    """Everything a run reports, minus the config echo."""
    result = result_to_dict(run_simulation(config))
    result.pop("config")
    return result


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
    # Permanent faults must not perturb the RNG stream: the teardown draws
    # no randomness.
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
    # injector stream must be untouched by them.
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


def test_equivalence_holds_under_invariant_sanitizer():
    """The SIM10x sanitizer only reads: a run it audits every cycle
    reports exactly what the unaudited run does."""
    kw = dict(rates={FaultSite.LINK: 0.01}, messages=60)
    assert _observables(_config(invariant_checks=True, **kw)) == _observables(
        _config(**kw)
    )


def test_permanent_link_kill_west_first_returns_credits_on_time():
    """A credit returned by a permanent kill's teardown is consumed the
    cycle it falls due.

    The scenario is ``RESIL_noc``'s west-first degradation level with two
    kills.  At cycle 400 the kill of link 22.SOUTH flushes router 22's
    WEST input VCs and returns their credits to router 21 on link
    21.EAST->22.WEST, due at 401.  A loop that woke routers only on
    pushes missed them: the kill runs before the receive phase, which
    cleared the wake, so the credits sat past due until cycle 409 and the
    level delivered 508 packets instead of 507.
    """
    config = SimulationConfig(
        noc=NoCConfig(shape=(6, 6), routing=RoutingAlgorithm.WEST_FIRST),
        faults=FaultConfig(
            permanent=PermanentFaultSchedule.of(
                PermanentFault("link", 10, Direction.SOUTH),
                PermanentFault("link", 22, Direction.SOUTH, cycle=400),
            ),
        ),
        workload=WorkloadConfig(
            injection_rate=0.08, num_messages=1, warmup_messages=0,
            max_cycles=15_800, seed=2006,
        ),
        backend="object",
    )
    with pytest.warns(UserWarning, match="NOC013"):
        sim = Simulator(config)
    net = sim.network
    assert net.kernel is None
    credits = net._link_map[(21, Direction.EAST)].credits
    returned = []
    while net.cycle < 406:
        sim._generate_traffic(net.cycle)
        net.step()
        due = [cycle for cycle, _ in credits._queue]
        if net.cycle == 401:
            returned = due
        assert all(cycle >= net.cycle for cycle in due), (net.cycle, due)
    assert returned == [401] * 4  # the teardown's credits, as recorded
    assert [cycle for cycle, _ in credits._queue] == [406]


def test_packet_tracer_sees_identical_itineraries():
    """PacketTracer only reads: each packet's itinerary is the same
    whether it is watched alone or beside another, and the traced run
    delivers on the cycle an untraced run does."""

    def network():
        net = Network(SimulationConfig(noc=NoCConfig(shape=(4, 4)), backend="object"))
        assert net.kernel is None
        net.interfaces[0].enqueue(Packet(0, 0, 15, 4, 0))
        net.interfaces[5].enqueue(Packet(1, 5, 2, 4, 0))
        return net

    def traced_itineraries(watch):
        tracer = PacketTracer(network(), watch=watch)
        done = tracer.run_until_delivered(2)
        assert done is not None
        itineraries = {
            pid: [
                (s.cycle, s.flit_seq, s.location)
                for s in tracer.trace(pid).sightings
            ]
            for pid in watch
        }
        return done, itineraries

    untraced = network()
    while untraced.completed < 2:
        untraced.step()
    done, both = traced_itineraries([0, 1])
    assert done == untraced.cycle
    assert all(both.values())
    for pid in (0, 1):
        assert traced_itineraries([pid]) == (done, {pid: both[pid]})


# -- telemetry ---------------------------------------------------------------
#
# Events fire only inside state changes and sampling is a pure read at fixed
# cycles, so telemetry on or off may not move any observable.

from repro.telemetry import TelemetryConfig  # noqa: E402


def _telemetry_config(**kw):
    return dataclasses.replace(
        _config(**kw),
        telemetry=TelemetryConfig(enabled=True, metrics_interval=50),
    )


def test_telemetry_does_not_perturb_observables():
    """Telemetry on vs off: identical results on the object loop."""
    kw = SCENARIOS["xy_all_sites_alt_seed"]
    with_tel = _observables(_telemetry_config(**kw))
    assert with_tel.pop("telemetry")["events"]
    assert with_tel == _observables(_config(**kw))


# -- batched-kernel equivalence ----------------------------------------------
#
# ``backend="batched"`` swaps the object cycle loop for the struct-of-arrays
# kernel (repro.noc.kernel).  Inside its domain the kernel must be bit-for-bit
# equivalent — every counter, latency, hop, energy tally, telemetry event and
# series sample.  Outside its domain the network silently falls back to the
# object loop, so the flag must *never* change results on any config.

from repro import api  # noqa: E402
from repro.noc.kernel import kernel_supports  # noqa: E402

#: Burst sites as ``faults`` dicts (``IntermittentFaultSchedule.to_dicts``).
BURST_SITES = [
    {"node": 5, "direction": "east", "rate": 0.5, "mean_on": 30, "mean_off": 60},
    {"node": 9, "direction": "north", "rate": 0.5, "mean_on": 20, "mean_off": 50,
     "start": 50},
]
BURST_SITES_3D = [
    {"node": 5, "direction": "up", "rate": 0.6, "mean_on": 30, "mean_off": 60},
    {"node": 21, "direction": "down", "rate": 0.6, "mean_on": 30, "mean_off": 60},
    {"node": 9, "direction": "east", "rate": 0.5, "mean_on": 20, "mean_off": 50},
]

#: In-domain scenarios, expressed as api.load_config overrides on a 4x4
#: baseline.  Together they cover every batchable axis: all three supported
#: routing algorithms, both topologies, every pipeline depth, single-flit
#: packets, VC/depth extremes, utilization collection, and transient link
#: faults under all four protection schemes.
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
    # Transient link faults: the shared injector stream, SEC, NACK/replay
    # (HBH) and the destination policy (FEC, NONE) on the flat arrays.
    **{
        f"{scheme}_links_{rate:.0e}": dict(
            scheme=scheme, link_error_rate=rate, rate=0.2, collect_utilization=True
        )
        for scheme in ("hbh", "e2e", "fec", "none")
        for rate in (1e-3, 1e-2, 1e-1)
    },
    # Every link upset is multi-bit and the first NACK gives up: header
    # materialization, the XY misroute check and the route-NACK rollback.
    "hbh_multi_bit_giveups": dict(
        link_error_rate=0.1,
        faults={"link_multi_bit_fraction": 1.0},
        max_nack_retries=0,
        rate=0.2,
        messages=200,
    ),
    "west_first_hbh_links": dict(
        routing="west_first", link_error_rate=0.05, rate=0.3, messages=200
    ),
    "torus_hbh_links": dict(topology="torus", link_error_rate=0.05, rate=0.15),
    # E2E on clean links still keeps source copies and schedules ACKs.
    "e2e_clean": dict(scheme="e2e", rate=0.2),
    # Every upset is multi-bit: a SRC-field hit makes the retransmission
    # request unaddressable (the LOST path) and leaves the copy unreleased.
    "e2e_multi_bit": dict(
        scheme="e2e",
        link_error_rate=0.1,
        faults={"link_multi_bit_fraction": 1.0},
        rate=0.2,
        messages=200,
    ),
    "torus_e2e_links": dict(
        topology="torus", scheme="e2e", link_error_rate=0.05, rate=0.15
    ),
    # N-axis platforms and slow links: 7-port routers, and TSV lines whose
    # flits, credits and NACKs wait in the kernel's due-cycle wheel.
    "mesh3d_tsv": dict(shape="3x3x3", link_latency="1,1,2", retx_depth=5, rate=0.1),
    "torus3d": dict(shape="3x3x3", topology="torus3d", rate=0.1),
    "mesh3d_tsv_hbh_links": dict(
        shape="3x3x3", link_latency="1,1,2", retx_depth=5, rate=0.1,
        link_error_rate=0.05,
    ),
    "latency_2_hbh_links": dict(
        link_latency=2, retx_depth=5, rate=0.15, link_error_rate=0.05
    ),
    # Burst sites that cannot wear out, with and without a transient link
    # rate, under HBH and E2E.
    **{
        f"{scheme}_bursts{'_links' if rate else ''}": dict(
            scheme=scheme, rate=0.15,
            faults={"rates": {"link": rate}, "intermittent": BURST_SITES},
        )
        for scheme in ("hbh", "e2e")
        for rate in (0.0, 0.01)
    },
    # A wear-out that never comes swaps XY for port-aware table routing;
    # multi-bit upsets rewrite headers into turns the tables forbid, so
    # packets are torn down as unroutable and their followers drained.
    "wear_out_port_aware_e2e": dict(
        scheme="e2e", rate=0.15, messages=200,
        faults={
            "rates": {"link": 0.08}, "link_multi_bit_fraction": 1.0,
            "intermittent": BURST_SITES, "wear_out": {"threshold": 1e9},
        },
    ),
    "mesh3d_wear_out_hbh_giveups": dict(
        shape="3x3x3", link_latency="1,1,2", retx_depth=5, rate=0.1,
        messages=200, max_nack_retries=0,
        faults={
            "rates": {"link": 0.1}, "link_multi_bit_fraction": 1.0,
            "intermittent": BURST_SITES_3D, "wear_out": {"threshold": 1e9},
        },
    ),
}


def _backend_config(backend, **kw):
    base = dict(shape=(4, 4), rate=0.05, messages=120, warmup=20, seed=11)
    base.update(kw)
    return api.load_config(backend=backend, **base)


def _backend_observables(backend, **kw):
    result = result_to_dict(api.run(_backend_config(backend, **kw)))
    assert result.pop("config")["backend"] == backend
    return result


@pytest.mark.filterwarnings("ignore:NOC008")  # torus_xy: advisory, no wedge
@pytest.mark.parametrize("scenario", BATCHED_SCENARIOS)
def test_batched_kernel_is_bit_for_bit_equivalent(scenario):
    kw = BATCHED_SCENARIOS[scenario]
    # An in-domain scenario: the batched side really runs on the kernel.
    assert Network(_backend_config("batched", **kw)).kernel is not None
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


def test_port_aware_scenarios_reach_the_unroutable_teardown():
    """The wear-out scenarios above exercise what they are named for."""
    for name in ("wear_out_port_aware_e2e", "mesh3d_wear_out_hbh_giveups"):
        result = _backend_observables("batched", **BATCHED_SCENARIOS[name])
        counters = result["counters"]
        for counter in ("packets_unroutable", "intermittent_strikes"):
            assert counters.get(counter, 0) > 0, (name, counter)


def test_a_default_in_domain_config_builds_a_kernel():
    """Nothing needs asking: the kernel serves every in-domain config."""
    assert SimulationConfig().backend == "batched"
    for kw in ({}, BATCHED_SCENARIOS["mesh3d_tsv"], BATCHED_SCENARIOS["hbh_bursts"]):
        config = api.load_config(**{"shape": (4, 4), **kw})
        assert kernel_supports(config) is None
        assert Network(config).kernel is not None


def test_flits_sent_is_counted_alike_on_both_engines():
    """``NetworkInterface.flits_sent`` is the one injected-flit count: the
    kernel advances it too (it read 0 on a kernel-served network)."""
    sent = {}
    for backend in ("object", "batched"):
        sim = Simulator(_backend_config(backend, rate=0.2))
        assert (sim.network.kernel is not None) == (backend == "batched")
        sim.run_to_cycle(80)
        sent[backend] = sum(ni.flits_sent for ni in sim.network.interfaces)
    assert sent["batched"] == sent["object"] > 0


def test_giveup_scenario_reaches_the_route_nack_rollback():
    """The multi-bit scenario above exercises what it is named for."""
    scenario = BATCHED_SCENARIOS["hbh_multi_bit_giveups"]
    result = _backend_observables("batched", **scenario)
    counters = result["counters"]
    for name in ("retransmission_giveups", "route_nacks_sent", "route_nack_rollbacks"):
        assert counters.get(name, 0) > 0, name


def test_out_of_domain_configs_fall_back_to_the_object_loop():
    config = dataclasses.replace(
        _config(rates={FaultSite.ROUTING: 0.01}), backend="batched"
    )
    net = Network(config)
    assert net.kernel is None  # fell back
    in_domain = dataclasses.replace(_config(), backend="batched")
    assert Network(in_domain).kernel is not None


def test_kernel_supports_names_each_unsupported_feature():
    assert kernel_supports(_config()) is None
    for rates in ({}, {FaultSite.LINK: 0.01}):  # E2E, clean or faulted
        e2e = _config(protection=LinkProtection.E2E, rates=rates)
        assert kernel_supports(e2e) is None
    bursts = IntermittentFaultSchedule.of(
        IntermittentFault(5, Direction.EAST, 0.4, 25.0, 60.0)
    )
    # Burst sites without wear-out, or whose wear-out max_cycles cannot
    # reach (a link carries one flit a cycle), stay in the domain: stress
    # grows by at most strike_weight + traversal_weight = 2 a cycle.
    unreachable = WearOutConfig(threshold=2 * 50_000 + 1, traversal_weight=1.0)
    for wear_out in (None, unreachable):
        config = _config(intermittent=bursts, wear_out=wear_out)
        assert kernel_supports(config) is None
    cases = [
        (dict(rates={FaultSite.ROUTING: 0.01}), "transient"),
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
                intermittent=bursts,
                wear_out=WearOutConfig(threshold=2 * 50_000, traversal_weight=1.0),
            ),
            "intermittent",
        ),
        (dict(deadlock_recovery=True), "deadlock"),
        (dict(invariant_checks=True), "sanitizer"),
    ]
    for kw, needle in cases:
        reason = kernel_supports(_config(**kw))
        assert reason is not None and needle in reason
    ecc = dataclasses.replace(_config(), payload_ecc_check=True)
    assert "ECC" in kernel_supports(ecc)


def test_a_kernel_network_stops_where_a_burst_site_could_wear_out():
    """In the domain a site cannot wear out within max_cycles; run past
    it, a kernel-served network stops at the first cycle stress could
    reach the threshold (threshold / (strike + traversal weight)) rather
    than run a link death it does not model."""
    bursts = IntermittentFaultSchedule.of(
        IntermittentFault(5, Direction.EAST, 0.4, 25.0, 60.0)
    )
    config = _config(
        intermittent=bursts,
        wear_out=WearOutConfig(threshold=120.0, traversal_weight=1.0),
    )
    config = dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, max_cycles=50),
        backend="batched",
    )
    assert kernel_supports(config) is None
    net = Network(config)
    assert net.kernel is not None
    net.run_cycles(60)  # past max_cycles, short of 120 / (1 + 1)
    with pytest.raises(RuntimeError, match="cycle 60: a burst site could"):
        net.step()


@pytest.mark.parametrize(
    "scenario",
    [
        "xy_baseline",
        "many_vcs_deep_buffers",
        "torus_west_first",
        "hbh_links_1e-01",
        "fec_links_1e-01",
        "e2e_links_1e-01",
        "hbh_multi_bit_giveups",
        "mesh3d_tsv_hbh_links",
        "e2e_bursts_links",
        "wear_out_port_aware_e2e",
        "mesh3d_wear_out_hbh_giveups",
        "hbh_bursts_links",
    ],
)
def test_batched_telemetry_is_byte_identical(scenario, tmp_path):
    """Events, sampled series and the NDJSON export itself must match the
    object backend byte for byte (one sampler, two gauge sources)."""
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


@pytest.mark.parametrize(
    "scenario", ["mesh3d_wear_out_hbh_giveups", "hbh_bursts_links"]
)
def test_byte_identical_exports_cover_several_receiving_routers_a_cycle(scenario):
    """The NDJSON byte test pins the receive phase's event order only where
    routers publish receive-phase events (NACKs, replays, out-of-window
    drops, give-ups) in the same cycle; these scenarios do."""
    base = dict(
        shape=(4, 4), rate=0.1, messages=150, warmup=20, seed=23,
        telemetry=True, metrics_interval=20,
    )
    config = api.load_config(
        backend="batched", **{**base, **BATCHED_SCENARIOS[scenario]}
    )
    receive_kinds = {"nack", "flit_replay", "flit_drop", "retransmission_giveup"}
    routers = {}
    for event in api.run(config).telemetry.events:
        if event.kind in receive_kinds:
            routers.setdefault(event.cycle, set()).add(event.node)
    assert any(len(nodes) > 1 for nodes in routers.values())


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
    # Older serialized configs (no key) take the dataclass default.
    legacy = config_to_dict(SimulationConfig(backend="object"))
    legacy.pop("backend")
    assert config_from_dict(legacy).backend == SimulationConfig().backend == "batched"


# -- a kernel-served network builds no object graph --------------------------
#
# Inside the batched domain Network.__init__ builds only what the kernel
# reads (config, topology, NIs); routers, links and their buffers are never
# constructed, and the kernel's route table is one memo per platform.

from repro.core.retransmission import RetransmissionBuffer  # noqa: E402
from repro.noc.buffers import VCBuffer  # noqa: E402
from repro.noc.kernel import route_table  # noqa: E402
from repro.noc.link import Link  # noqa: E402
from repro.noc.router import Router  # noqa: E402


GRAPH_CLASSES = (Router, Link, VCBuffer, RetransmissionBuffer)


def _count_constructions(monkeypatch):
    built = {cls.__name__: 0 for cls in GRAPH_CLASSES}
    for cls in GRAPH_CLASSES:
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kw):
            built[_name] += 1
            _real(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_kernel_served_sweep_constructs_no_object_graph(monkeypatch):
    built = _count_constructions(monkeypatch)
    config = api.load_config(backend="batched", shape=(4, 4), messages=60, warmup=10)
    results = api.sweep(config, rates=[0.1, 0.3])
    assert len(results) == 2 and all(r.packets_delivered for r in results)
    assert set(built.values()) == {0}, built


def test_out_of_domain_batched_config_still_builds_the_object_graph(monkeypatch):
    built = _count_constructions(monkeypatch)
    net = Network(
        api.load_config(backend="batched", faults={"rates": {"rt_logic": 0.01}})
    )
    assert net.kernel is None
    assert built["Router"] == len(net.routers) == 64
    assert built["Link"] == len(net.links) > 0
    assert built["VCBuffer"] > 0 and built["RetransmissionBuffer"] > 0


@pytest.mark.filterwarnings("ignore:NOC008")
@pytest.mark.parametrize(
    "topology, shape",
    [("mesh", (4, 4)), ("torus", (4, 4)), ("mesh3d", (3, 3, 2)), ("mesh", (3, 5))],
)
def test_capacity_formula_equals_the_router_sums(topology, shape):
    for retx_depth in (3, 5, 7):  # NoCConfig rejects depths below 3
        for vcs in (1, 2, 4):
            noc = NoCConfig(
                topology=topology,
                shape=shape,
                retx_buffer_depth=retx_depth,
                num_vcs=vcs,
            )
            net = Network(SimulationConfig(noc=noc, backend="object"))
            vc_slots = sum(
                ivc.buffer.capacity
                for r in net.routers
                for port_vcs in r.inputs
                for ivc in port_vcs
            )
            assert net._tx_capacity == vc_slots
            assert net._retx_capacity == sum(r.retx_capacity for r in net.routers)
            batched = Network(SimulationConfig(noc=noc, backend="batched"))
            if batched.kernel is not None:
                assert batched._tx_capacity == net._tx_capacity
                assert batched._retx_capacity == net._retx_capacity


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (3, 5)])
@pytest.mark.parametrize(
    "routing",
    [RoutingAlgorithm.XY, RoutingAlgorithm.WEST_FIRST, RoutingAlgorithm.FULLY_ADAPTIVE],
)
def test_route_table_memo_equals_a_fresh_routing_evaluation(routing, shape):
    noc = NoCConfig(shape=shape, routing=routing)
    net = Network(SimulationConfig(noc=noc, backend="batched"))
    assert net.kernel is not None
    topo, fn = net.topology, net.routing_fn
    table = net.kernel.route_table
    R = topo.num_nodes
    assert len(table) == R * R
    probe = Flit(0, 0, FlitType.HEAD, 0, 0)
    for r in range(R):
        valid = {Direction.LOCAL, *topo.connected_directions(r)}
        for dst in range(R):
            probe.dst = dst
            fresh = tuple(int(d) for d in fn.candidates(topo, r, probe) if d in valid)
            assert table[r * R + dst] == fresh, (r, dst)


@pytest.mark.filterwarnings("ignore:NOC008")
def test_route_table_is_shared_per_platform_and_only_per_platform():
    def table(**kw):
        noc = NoCConfig(**{"shape": (4, 4), **kw})
        net = Network(SimulationConfig(noc=noc, backend="batched"))
        assert net.kernel is not None
        return net.kernel.route_table

    base = table()
    # Fields the key does not name (buffering, VCs) share the one table ...
    assert table() is base
    assert table(num_vcs=2, vc_buffer_depth=8) is base
    assert base is route_table(NoCConfig(shape=(4, 4)))
    # ... fields make_topology / routing_for_config read do not.
    assert table(routing=RoutingAlgorithm.WEST_FIRST) is not base
    assert table(shape=(4, 5)) is not base
    assert table(topology="torus") is not base


def test_a_memoized_port_aware_table_builds_no_table_routing(monkeypatch):
    """A kernel-served wear-out network routes by the memoized port-aware
    table: only the memo's miss builds a FaultAwareRouting, and the
    network builds its own only when asked for it."""
    from repro.noc import kernel
    from repro.noc.routing import FaultAwareRouting

    monkeypatch.setattr(kernel, "_ROUTE_TABLES", {})
    rebuild = FaultAwareRouting.rebuild
    calls = []

    def counted(self, *args, **kw):
        calls.append(self)
        return rebuild(self, *args, **kw)

    monkeypatch.setattr(FaultAwareRouting, "rebuild", counted)
    config = api.load_config(
        shape=(4, 4), backend="batched",
        faults={"intermittent": BURST_SITES, "wear_out": {"threshold": 1e9}},
    )
    first, second = Network(config), Network(config)
    assert first.kernel.port_aware and second.kernel is not None
    assert second.kernel.route_table is first.kernel.route_table
    assert len(calls) <= 1
    # Asked for, the network's routing function is routing_for_config's.
    assert isinstance(second.routing_fn, FaultAwareRouting)
    assert second.routing_fn is second.routing_fn
