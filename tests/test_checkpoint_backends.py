"""The checkpoint <-> backend contract (docs/CHECKPOINTING.md).

A checkpoint written by one backend resumes on that backend, bit-for-bit:
the pickled state *is* that backend's (object graph vs. packed int64
arrays), so there is nothing to choose at load time.  The contract this
module pins:

* same-backend interrupt/resume on ``backend="batched"`` reproduces the
  uninterrupted run exactly (result dict, counters, NDJSON telemetry);
* the header records the backend, readable without unpickling;
* a load resumes on whatever backend the header records — the file is
  self-describing.
"""

import pytest

from repro import api
from repro.checkpoint import (
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
from repro.noc.kernel_faults import LinkFaultKernel
from repro.noc.simulator import Simulator
from repro.serialization import result_to_dict
from repro.telemetry.export import write_ndjson


def _cfg(backend, **kw):
    base = dict(
        shape=(4, 4),
        rate=0.1,
        messages=150,
        warmup=20,
        seed=42,
        telemetry=True,
        metrics_interval=20,
    )
    base.update(kw)
    return api.load_config(backend=backend, **base)


#: A logic-fault site: outside the kernel's domain (``kernel_supports``).
RT_LOGIC_FAULTS = {"rates": {"rt_logic": 0.01}}


def _observables(result):
    out = result_to_dict(result)
    out.pop("config")
    return out


@pytest.fixture
def batched_ckpt(tmp_path):
    """A mid-run checkpoint written by the batched backend."""
    sim = Simulator(_cfg("batched"))
    sim.run_to_cycle(120)
    path = tmp_path / "batched.ckpt"
    save_checkpoint(sim, path)
    return path


class TestSameBackendResume:
    def test_batched_midpoint_resume_is_bit_for_bit(self, batched_ckpt, tmp_path):
        golden = Simulator(_cfg("batched")).run()
        resumed_sim = load_checkpoint(batched_ckpt)
        assert resumed_sim.network.kernel is not None  # kernel survived pickling
        resumed = resumed_sim.run()
        assert _observables(resumed) == _observables(golden)
        golden_path = tmp_path / "golden.ndjson"
        resumed_path = tmp_path / "resumed.ndjson"
        write_ndjson(golden.telemetry, golden_path)
        write_ndjson(resumed.telemetry, resumed_path)
        assert golden_path.read_bytes() == resumed_path.read_bytes()

    def test_batched_resume_matches_object_run(self, batched_ckpt):
        """Transitively: batched-interrupt-resume == straight object run."""
        object_golden = Simulator(_cfg("object")).run()
        resumed = load_checkpoint(batched_ckpt).run()
        assert _observables(resumed) == _observables(object_golden)


class TestCrossBackendGuard:
    def test_header_records_the_backend_without_unpickling(self, batched_ckpt):
        header = read_checkpoint_header(batched_ckpt)
        assert header["config"]["backend"] == "batched"


class TestSelfDescribingDefault:
    def test_default_load_resumes_on_the_recorded_backend(self, batched_ckpt):
        sim = load_checkpoint(batched_ckpt)
        assert sim.config.backend == "batched"
        assert sim.network.kernel is not None

    def test_out_of_domain_batched_checkpoint_resumes_on_fallback(self, tmp_path):
        """A config that requested batched but fell back (out of domain)
        checkpoints and resumes as the object loop it actually ran."""
        cfg = _cfg("batched", faults=RT_LOGIC_FAULTS, telemetry=False)
        sim = Simulator(cfg)
        assert sim.network.kernel is None  # fell back at construction
        sim.run_to_cycle(100)
        path = tmp_path / "fallback.ckpt"
        save_checkpoint(sim, path)
        resumed = load_checkpoint(path)
        assert resumed.network.kernel is None
        golden = Simulator(
            _cfg("batched", faults=RT_LOGIC_FAULTS, telemetry=False)
        ).run()
        assert _observables(resumed.run()) == _observables(golden)


class TestLinkFaultResume:
    def test_resume_with_a_nack_in_flight_and_replays_queued(self, tmp_path):
        """A kernel checkpoint cut while a NACK is on its delay line and a
        replay queue holds flits resumes bit-for-bit (result and NDJSON)."""
        kw = dict(
            link_error_rate=0.1, faults={"link_multi_bit_fraction": 1.0}, rate=0.2
        )
        sim = Simulator(_cfg("batched", **kw))
        kernel = sim.network.kernel
        assert isinstance(kernel, LinkFaultKernel)
        while not (any(kernel.nkn_cur) and kernel.rq_total):
            assert sim.should_continue(), "no cycle with both in flight"
            sim.advance()
        path = tmp_path / "nack.ckpt"
        save_checkpoint(sim, path)
        resumed = load_checkpoint(path).run()
        golden = Simulator(_cfg("batched", **kw)).run()
        assert golden.counter("retransmission_rounds") > 0
        assert _observables(resumed) == _observables(golden)
        on_objects = Simulator(_cfg("object", **kw)).run()
        assert _observables(golden) == _observables(on_objects)
        golden_path = tmp_path / "golden.ndjson"
        resumed_path = tmp_path / "resumed.ndjson"
        write_ndjson(golden.telemetry, golden_path)
        write_ndjson(resumed.telemetry, resumed_path)
        assert golden_path.read_bytes() == resumed_path.read_bytes()


class TestE2EResume:
    def test_resume_with_a_retransmit_event_due_and_copies_held(self, tmp_path):
        """A kernel checkpoint cut while an ``e2e_retransmit`` event waits
        in the heap and sources hold copies resumes bit-for-bit (result and
        NDJSON), and the uninterrupted run equals the object loop's."""
        kw = dict(scheme="e2e", link_error_rate=0.05, rate=0.2)
        sim = Simulator(_cfg("batched", **kw))
        assert isinstance(sim.network.kernel, LinkFaultKernel)
        network = sim.network
        while not (
            any(e[2] == "e2e_retransmit" for e in network.run_record.events)
            and any(ni.e2e_copies for ni in network.interfaces)
        ):
            assert sim.should_continue(), "no cycle with both outstanding"
            sim.advance()
        path = tmp_path / "e2e.ckpt"
        save_checkpoint(sim, path)
        resumed = load_checkpoint(path).run()
        golden = Simulator(_cfg("batched", **kw)).run()
        assert golden.counter("e2e_retransmissions") > 0
        assert _observables(resumed) == _observables(golden)
        on_objects = Simulator(_cfg("object", **kw)).run()
        assert _observables(golden) == _observables(on_objects)
        golden_path = tmp_path / "golden.ndjson"
        resumed_path = tmp_path / "resumed.ndjson"
        write_ndjson(golden.telemetry, golden_path)
        write_ndjson(resumed.telemetry, resumed_path)
        assert golden_path.read_bytes() == resumed_path.read_bytes()


class TestWheelResume:
    def test_resume_with_a_slow_link_item_in_flight(self, tmp_path):
        """A kernel checkpoint cut while a flit rides a 2-cycle TSV in the
        due-cycle wheel, on a 3D stack with burst sites under port-aware
        routing, resumes bit-for-bit (result and NDJSON), and the
        uninterrupted run equals the object loop's."""
        sites = [
            {"node": 4, "direction": "up", "rate": 0.5, "mean_on": 30,
             "mean_off": 60},
            {"node": 13, "direction": "down", "rate": 0.5, "mean_on": 30,
             "mean_off": 60},
        ]
        kw = dict(
            shape="3x3x3", link_latency="1,1,2", retx_depth=5, rate=0.1,
            faults={
                "rates": {"link": 0.02}, "intermittent": sites,
                "wear_out": {"threshold": 1e9},
            },
        )
        sim = Simulator(_cfg("batched", **kw))
        kernel = sim.network.kernel
        assert isinstance(kernel, LinkFaultKernel) and kernel.port_aware
        while not any(
            item[1] >= 0 for items in kernel.wheel.values() for item in items
        ):
            assert sim.should_continue(), "no cycle with a flit on a TSV"
            sim.advance()
        path = tmp_path / "wheel.ckpt"
        save_checkpoint(sim, path)
        resumed = load_checkpoint(path).run()
        golden = Simulator(_cfg("batched", **kw)).run()
        assert golden.counter("intermittent_strikes") > 0
        assert _observables(resumed) == _observables(golden)
        on_objects = Simulator(_cfg("object", **kw)).run()
        assert _observables(golden) == _observables(on_objects)
        golden_path = tmp_path / "golden.ndjson"
        resumed_path = tmp_path / "resumed.ndjson"
        write_ndjson(golden.telemetry, golden_path)
        write_ndjson(resumed.telemetry, resumed_path)
        assert golden_path.read_bytes() == resumed_path.read_bytes()
