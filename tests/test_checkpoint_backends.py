"""The checkpoint <-> backend contract (docs/CHECKPOINTING.md).

A checkpoint written by one backend resumes on that backend, bit-for-bit.
Cross-backend resume is deliberately unsupported: the two backends snapshot
different state shapes (object graph vs. packed int64 arrays), and a silent
conversion could not be audited against the bit-for-bit guarantee.  The
contract this module pins:

* same-backend interrupt/resume on ``backend="batched"`` reproduces the
  uninterrupted run exactly (result dict, counters, NDJSON telemetry);
* ``load_checkpoint(path, backend=...)`` with a backend that does not match
  the checkpoint header raises :class:`CheckpointError` *before* unpickling,
  in both directions;
* a default (no ``backend``) load resumes on whatever backend the header
  records — the file is self-describing.
"""

import pytest

from repro import api
from repro.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
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

    def test_object_resume_of_batched_checkpoint_raises(self, batched_ckpt):
        with pytest.raises(CheckpointError, match="cross-backend"):
            load_checkpoint(batched_ckpt, backend="object")

    def test_batched_resume_of_object_checkpoint_raises(self, tmp_path):
        sim = Simulator(_cfg("object"))
        sim.run_to_cycle(120)
        path = tmp_path / "object.ckpt"
        save_checkpoint(sim, path)
        with pytest.raises(CheckpointError, match="cross-backend"):
            load_checkpoint(path, backend="batched")

    def test_matching_assertion_passes(self, batched_ckpt):
        sim = load_checkpoint(batched_ckpt, backend="batched")
        assert sim.network.kernel is not None

    def test_api_resume_forwards_the_backend(self, batched_ckpt):
        with pytest.raises(CheckpointError, match="cross-backend"):
            api.resume(batched_ckpt, backend="object")


class TestSelfDescribingDefault:
    def test_default_load_resumes_on_the_recorded_backend(self, batched_ckpt):
        sim = load_checkpoint(batched_ckpt)
        assert sim.config.backend == "batched"
        assert sim.network.kernel is not None

    def test_out_of_domain_batched_checkpoint_resumes_on_fallback(self, tmp_path):
        """A config that requested batched but fell back (out of domain)
        checkpoints and resumes as the object loop it actually ran."""
        cfg = _cfg("batched", link_error_rate=0.01, telemetry=False)
        sim = Simulator(cfg)
        assert sim.network.kernel is None  # fell back at construction
        sim.run_to_cycle(100)
        path = tmp_path / "fallback.ckpt"
        save_checkpoint(sim, path)
        resumed = load_checkpoint(path, backend="batched")  # header matches
        assert resumed.network.kernel is None
        golden = Simulator(_cfg("batched", link_error_rate=0.01, telemetry=False)).run()
        assert _observables(resumed.run()) == _observables(golden)
