"""A network is freed when its run returns.

No object a :class:`~repro.noc.network.Network` owns keeps a reference back
to the network (docs/ARCHITECTURE.md, "Ownership"), so the whole graph of
a finished run is reclaimed by reference counting alone.  Every test here
runs with the cyclic collector disabled: a network that is still alive
when its front door returns sits in a reference cycle.
"""

import gc
import weakref

import pytest

from repro import api
from repro.experiments.deadlock_demo import run_deadlock_demo
from repro.noc.network import Network
from repro.noc.simulator import Simulator, run_simulation
from repro.noc.packet import Packet
from repro.noc.trace import PacketTracer


@pytest.fixture
def built(monkeypatch):
    """Weak references to every Network constructed in the test, with the
    cyclic collector off for the test body."""
    refs = []
    real = Network.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Network, "__init__", recording)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def assert_all_freed(refs):
    assert refs, "no Network was built"
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} networks outlived their run"


def small(**overrides):
    base = dict(
        shape=(4, 4), rate=0.2, messages=60, warmup=10, seed=5, backend="object"
    )
    base.update(overrides)
    return api.load_config(**base)


def faults(**specs):
    rates = specs.pop("rates", {})
    return api.faults_from_specs(rates, **specs)


CONFIGS = {
    "hbh_link_faults": lambda: small(scheme="hbh", link_error_rate=0.02),
    "e2e_link_faults": lambda: small(scheme="e2e", link_error_rate=0.02),
    "fec_link_faults": lambda: small(scheme="fec", link_error_rate=0.02),
    "batched_in_domain": lambda: small(backend="batched"),
    "telemetry_object": lambda: small(
        link_error_rate=0.01, telemetry=True, metrics_interval=10
    ),
    "telemetry_batched": lambda: small(
        backend="batched", telemetry=True, metrics_interval=10
    ),
    "batched_link_faults": lambda: small(
        backend="batched", scheme="fec", link_error_rate=0.05,
        telemetry=True, metrics_interval=10,
    ),
    "batched_e2e": lambda: small(
        backend="batched", scheme="e2e", link_error_rate=0.05
    ),
    "intermittent_wear_out": lambda: small(
        faults=faults(
            intermittent_links=["5:east:0.5:10:40", "6:north:0.5:10:40"],
            wear_out={"threshold": 2.0},
        ),
        telemetry=True,
        metrics_interval=25,
    ),
    "permanent_deaths": lambda: small(
        faults=faults(dead_links=["5:east@40"], dead_routers=["10@60"]),
        telemetry=True,
        metrics_interval=25,
    ),
    # Probes launch (the controllers act), though no deadlock forms.
    "deadlock_recovery": lambda: small(
        routing="fully_adaptive",
        deadlock_recovery_enabled=True,
        deadlock_threshold=2,
        rate=0.5,
    ),
    "invariant_checks": lambda: small(link_error_rate=0.02, invariant_checks=True),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_simulation_frees_its_network(built, name):
    result = run_simulation(CONFIGS[name]())
    assert result.packets_delivered
    assert_all_freed(built)


@pytest.mark.parametrize("name", ["e2e_link_faults", "telemetry_batched"])
def test_api_run_frees_its_network(built, name, tmp_path):
    result = api.run(CONFIGS[name](), telemetry_path=tmp_path / "t.ndjson")
    assert result.packets_delivered
    assert_all_freed(built)


@pytest.mark.parametrize("name", ["permanent_deaths", "batched_in_domain"])
def test_api_resume_frees_its_network(built, name, tmp_path, monkeypatch):
    path = tmp_path / "run.ckpt"
    sim = Simulator(CONFIGS[name]())
    sim.run_to_cycle(30)
    sim.write_checkpoint(str(path))
    del sim
    assert_all_freed(built)
    built.clear()
    # Unpickling calls no __init__: record the resumed network as it runs.
    real_run = Simulator.run

    def recording_run(self):
        built.append(weakref.ref(self.network))
        return real_run(self)

    monkeypatch.setattr(Simulator, "run", recording_run)
    result = api.resume(path)
    assert result.packets_delivered
    assert_all_freed(built)


def test_source_routed_deadlock_demo_frees_its_network(built):
    assert run_deadlock_demo(recovery=True).delivered == 4
    assert_all_freed(built)


@pytest.mark.parametrize("name", ["hbh_link_faults", "batched_in_domain"])
def test_a_directly_stepped_network_is_freed_on_del(built, name):
    net = Network(CONFIGS[name]())
    net.interfaces[0].enqueue(Packet(0, 0, 15, 4, injection_cycle=0))
    net.run_cycles(40)
    assert net.delivered == 1
    del net
    assert_all_freed(built)


def test_a_traced_network_is_freed_with_its_tracer(built):
    net = Network(CONFIGS["hbh_link_faults"]())
    net.interfaces[0].enqueue(Packet(0, 0, 15, 4, injection_cycle=0))
    tracer = PacketTracer(net, watch=[0])
    assert tracer.run_until_delivered(1) is not None
    del net, tracer
    assert_all_freed(built)
