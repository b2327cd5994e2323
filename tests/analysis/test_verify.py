"""The routing certification engine (``repro verify``).

Four layers:

* **Traversal verdicts** — connectivity and livelock-freedom on healthy
  meshes/tori for every routing algorithm, with the known negatives
  (torus XY deadlock, hand-built livelocking routing) producing witnesses.
* **Fault sweeps** — exhaustive single-link kills and seeded multi-kill
  samples certify the FaultAwareRouting rebuild; reproducible for a seed.
* **Simulation cross-check** — the acceptance criterion: on an exhaustive
  small-mesh sweep, every pair the engine certifies must deliver in the
  real simulator, and every pair it rejects must not (ground truth, not
  another static pass).
* **Artifact** — ``build_standard_certificate`` is deterministic and the
  committed ``CERT_routing.json`` matches it (same gate CI applies).
"""

import json
import pathlib

import pytest

from repro.analysis.verify import (
    STANDARD_SWEEP_SEED,
    both_alive_pairs,
    build_standard_certificate,
    certified_pairs,
    certify_config,
    certify_fault_trial,
    certify_routing,
    certify_traversal,
    check_expectations,
    directed_channels,
    sweep_multi_link_kills,
    sweep_single_link_kills,
)
from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.routing import (
    FaultAwareRouting,
    SourceRouting,
    resolve_routing_function,
)
from repro.noc.topology import GraphTopology, MeshTopology, TorusTopology
from repro.types import Direction, RoutingAlgorithm

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def routing(name, topology):
    return resolve_routing_function(RoutingAlgorithm(name), topology)


class TestHealthyTraversal:
    @pytest.mark.parametrize(
        "algo", ["xy", "west_first", "fully_adaptive", "ft_table"]
    )
    def test_mesh_connected_and_livelock_free(self, algo):
        mesh = MeshTopology(shape=(4, 4))
        verdict = certify_traversal(mesh, routing(algo, mesh))
        assert verdict.connected
        assert verdict.livelock_free
        assert verdict.delivered_pairs == verdict.expected_pairs == 240
        assert verdict.missing_pairs == ()
        assert verdict.stuck_states == ()

    @pytest.mark.parametrize("algo", ["xy", "west_first", "ft_table"])
    def test_progress_metric_bound_is_the_diameter(self, algo):
        # Minimal routing on a healthy mesh: the longest remaining route
        # equals the Manhattan diameter.
        mesh = MeshTopology(shape=(4, 4))
        verdict = certify_traversal(mesh, routing(algo, mesh))
        assert verdict.max_route_length == 6

    def test_torus_xy_connected_but_not_deadlock_free(self):
        torus = TorusTopology(shape=(5, 5))
        cert = certify_routing(torus, routing("xy", torus), num_vcs=3)
        assert cert.connected
        assert cert.livelock_free
        assert not cert.deadlock_free
        assert cert.cdg.witness_text  # concrete wrap-ring witness
        assert not cert.certified

    def test_fully_adaptive_mesh_flagged_by_cdg_only(self):
        mesh = MeshTopology(shape=(4, 4))
        cert = certify_routing(mesh, routing("fully_adaptive", mesh))
        assert cert.connected and cert.livelock_free
        assert not cert.deadlock_free

    def test_source_routing_rejected(self):
        mesh = MeshTopology(shape=(3, 3))
        with pytest.raises(ValueError, match="source routing"):
            certify_traversal(mesh, SourceRouting())


class LivelockRouting:
    """Hand-built oscillator: nodes b and c bounce packets for dst 'z'."""

    def candidates(self, topology, current, flit):
        if current == flit.dst:
            return [Direction.LOCAL]
        if current == "a":
            return ["fwd"]  # a -> b
        if current == "b":
            return ["fwd"]  # b -> c
        return ["back"]  # c -> b: the oscillation


class TestNegativeTraversal:
    def oscillator(self):
        return GraphTopology(
            {
                "a": {"fwd": "b"},
                "b": {"fwd": "c", "back": "a"},
                "c": {"back": "b", "out": "z"},
                "z": {"in": "c"},
            }
        )

    def test_livelock_is_detected_with_witness(self):
        g = self.oscillator()
        verdict = certify_traversal(g, LivelockRouting())
        assert not verdict.livelock_free
        assert not verdict.connected
        assert verdict.livelock_witness  # the b <-> c oscillation
        witness = " ".join(verdict.livelock_witness)
        assert "b" in witness and "c" in witness

    def test_stuck_states_reported_as_missing_pairs(self):
        # 'sink' has no outgoing ports: anything routed into it for a
        # farther destination strands.
        g = GraphTopology({"a": {"out": "sink"}, "sink": {}})

        class IntoTheSink:
            def candidates(self, topology, current, flit):
                if current == flit.dst:
                    return [Direction.LOCAL]
                return ["out"] if current == "a" else []

        verdict = certify_traversal(g, IntoTheSink())
        assert not verdict.connected
        assert verdict.livelock_free  # stranded, not looping
        assert verdict.stuck_states
        assert "a->sink" not in verdict.missing_pairs  # sink itself reachable
        assert "sink->a" in verdict.missing_pairs


class TestBothAlivePairs:
    def test_healthy_mesh_is_all_pairs(self):
        mesh = MeshTopology(shape=(3, 3))
        assert len(both_alive_pairs(mesh)) == 72

    def test_one_dead_direction_kills_the_undirected_edge(self):
        # 3x1 path: killing 0->east alone removes edge 0-1 for the
        # expected-pairs criterion (the reverse survives only best-effort).
        path = MeshTopology(shape=(3, 1))
        pairs = both_alive_pairs(path, {(0, Direction.EAST)})
        assert pairs == frozenset({(1, 2), (2, 1)})

    def test_dead_router_is_excluded(self):
        mesh = MeshTopology(shape=(3, 3))
        pairs = both_alive_pairs(mesh, dead_routers={4})
        assert all(4 not in pair for pair in pairs)
        # Centre removal leaves the ring connected: all other pairs stay.
        assert len(pairs) == 56


class TestFaultSweeps:
    def test_single_link_kills_certify_on_mesh(self):
        mesh = MeshTopology(shape=(4, 4))
        sweep = sweep_single_link_kills(mesh)
        assert sweep.trials == len(directed_channels(mesh)) == 48
        assert sweep.certified
        assert sweep.all_connected
        assert sweep.all_deadlock_free
        assert sweep.all_livelock_free
        assert sweep.min_delivered_fraction == 1.0
        assert sweep.failures == ()

    def test_multi_kill_sweep_is_seed_reproducible(self):
        mesh = MeshTopology(shape=(4, 4))
        a = sweep_multi_link_kills(mesh, 3, 8, seed=7)
        b = sweep_multi_link_kills(mesh, 3, 8, seed=7)
        assert a.to_dict() == b.to_dict()
        assert a.trials == 8 and a.kills_per_trial == 3 and a.seed == 7
        assert a.certified

    def test_partitioning_trial_still_certifies_surviving_pairs(self):
        # Isolate corner node 0 of a 3x3 mesh (both directions of both of
        # its links): the trial certifies because expectations shrink to
        # the surviving 8-node component.
        mesh = MeshTopology(shape=(3, 3))
        kills = [
            (0, Direction.EAST),
            (1, Direction.WEST),
            (0, Direction.NORTH),
            (3, Direction.SOUTH),
        ]
        cert = certify_fault_trial(mesh, kills)
        assert cert.certified
        assert cert.traversal.expected_pairs == 56  # 8 * 7
        assert cert.traversal.delivered_pairs == 56

    def test_disconnection_against_all_pairs_is_flagged(self):
        # Same kill set, but demanding all 72 pairs: connectivity fails
        # and the missing pairs name node 0.
        mesh = MeshTopology(shape=(3, 3))
        fn = FaultAwareRouting(
            mesh,
            dead_links=[
                (0, Direction.EAST),
                (1, Direction.WEST),
                (0, Direction.NORTH),
                (3, Direction.SOUTH),
            ],
        )
        verdict = certify_traversal(mesh, fn)  # expected = all pairs
        assert not verdict.connected
        assert verdict.missing_pairs
        assert all("(0,0)" in pair for pair in verdict.missing_pairs)


def single_packet_network(schedule):
    """A quiet 3x3 ft_table network with ``schedule`` applied at cycle 0."""
    config = SimulationConfig(
        noc=NoCConfig(
            shape=(3, 3), routing=RoutingAlgorithm.FT_TABLE, num_vcs=2
        ),
        faults=FaultConfig(rates={}, permanent=schedule, seed=1),
        workload=WorkloadConfig(
            injection_rate=0.01, num_messages=1, warmup_messages=0, seed=1
        ),
    )
    return Network(config)


class TestSimulationCrossCheck:
    """Acceptance: static certification agrees with the simulator.

    Exhaustive over every ordered (src, dst) pair of a degraded 3x3 mesh:
    inject exactly one packet per pair into a real :class:`Network` and
    step until it is finalized.  Certified pairs must be *delivered*;
    uncertified pairs must be refused or dropped — in both directions, so
    the engine is neither optimistic nor pessimistic.
    """

    SCHEDULES = {
        "single_dead_link": [("link", 4, Direction.EAST)],
        "bidirectional_cut": [
            ("link", 4, Direction.EAST),
            ("link", 5, Direction.WEST),
        ],
        "isolated_corner": [
            ("link", 0, Direction.EAST),
            ("link", 1, Direction.WEST),
            ("link", 0, Direction.NORTH),
            ("link", 3, Direction.SOUTH),
        ],
        "dead_router": [("router", 4, None)],
    }

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_certified_iff_delivered(self, name):
        faults = [
            PermanentFault(kind, node, direction)
            for kind, node, direction in self.SCHEDULES[name]
        ]
        schedule = PermanentFaultSchedule.of(*faults)
        net = single_packet_network(schedule)
        # The engine's view of the same platform.
        topology = MeshTopology(shape=(3, 3))
        fn = FaultAwareRouting(topology)
        fn.rebuild(
            {
                (f.node, f.direction)
                for f in schedule
                if f.kind == "link"
            },
            {f.node for f in schedule if f.kind == "router"},
        )
        certified = certified_pairs(topology, fn)

        dead_routers = {f.node for f in schedule if f.kind == "router"}
        packet_id = 0
        for src in topology.nodes():
            for dst in topology.nodes():
                if src == dst or src in dead_routers or dst in dead_routers:
                    continue
                packet_id += 1
                finalized = net.completed
                delivered_before = net.delivered
                net.interfaces[src].enqueue(
                    Packet(packet_id, src, dst, 2, net.cycle)
                )
                for _ in range(400):
                    net.step()
                    if net.completed > finalized:
                        break
                else:
                    pytest.fail(f"packet {src}->{dst} never finalized")
                delivered = net.delivered > delivered_before
                assert delivered == ((src, dst) in certified), (
                    f"{name}: static={((src, dst) in certified)} but "
                    f"simulated delivery={delivered} for {src}->{dst}"
                )

    def test_healthy_mesh_delivers_every_certified_pair(self):
        net = single_packet_network(PermanentFaultSchedule.empty())
        topology = MeshTopology(shape=(3, 3))
        certified = certified_pairs(topology, FaultAwareRouting(topology))
        assert len(certified) == 72  # the engine promises everything...
        packet_id = 0
        for src, dst in sorted(certified):
            packet_id += 1
            before = net.delivered
            net.interfaces[src].enqueue(Packet(packet_id, src, dst, 2, net.cycle))
            for _ in range(400):
                net.step()
                if net.delivered > before:
                    break
            else:
                pytest.fail(f"certified pair {src}->{dst} was not delivered")


class TestConfigCertification:
    def test_degraded_config_certifies_what_will_run(self):
        schedule = PermanentFaultSchedule.of(
            PermanentFault("link", 5, Direction.EAST)
        )
        config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4), routing=RoutingAlgorithm.XY),
            faults=FaultConfig(rates={}, permanent=schedule, seed=1),
        )
        entry = certify_config(config)
        assert entry["routing"]["certified"]
        assert entry["platform"]["permanent_faults"] == schedule.to_dicts()

    def test_sweeps_attach_when_requested(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(3, 3), routing=RoutingAlgorithm.FT_TABLE)
        )
        entry = certify_config(
            config, single_link_kills=True, multi_kills=(2,), samples=4
        )
        assert entry["single_link_kills"]["certified"]
        assert entry["single_link_kills"]["trials"] == 24
        (multi,) = entry["multi_link_kills"]
        assert multi["kills_per_trial"] == 2
        assert multi["seed"] == STANDARD_SWEEP_SEED

    def test_entry_is_json_round_trippable(self):
        config = SimulationConfig(noc=NoCConfig(shape=(3, 3)))
        entry = certify_config(config)
        assert json.loads(json.dumps(entry)) == entry


@pytest.fixture(scope="module")
def certificate():
    return build_standard_certificate()


class TestStandardArtifact:
    def test_build_is_deterministic(self, certificate):
        again = build_standard_certificate()
        assert json.dumps(certificate, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_committed_artifact_is_current(self, certificate):
        """The CI gate, as a test: CERT_routing.json must be regenerable."""
        artifact = REPO_ROOT / "CERT_routing.json"
        assert artifact.exists(), "CERT_routing.json is not committed"
        committed = json.loads(artifact.read_text())
        assert committed == certificate

    def test_expectations_hold(self, certificate):
        problems = []
        for entry in certificate["targets"]:
            problems.extend(check_expectations(entry, entry["expect"]))
        assert problems == []

    def test_expectation_mismatch_is_reported(self, certificate):
        entry = certificate["targets"][0]
        problems = check_expectations(entry, {"certified": False})
        assert len(problems) == 1
        assert "expected certified=False" in problems[0]

    def test_torus_target_pins_the_witness(self, certificate):
        torus = [
            t for t in certificate["targets"] if t["name"] == "torus5x5_xy"
        ][0]
        assert not torus["routing"]["certified"]
        assert not torus["routing"]["deadlock_free"]
        assert torus["routing"]["witness"]
