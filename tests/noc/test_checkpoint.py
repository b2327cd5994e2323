"""Crash-safe checkpoint/resume: container format and bit-for-bit resume.

The contract under test (docs/CHECKPOINTING.md): interrupting a run at any
cycle boundary, discarding the process, and resuming from the checkpoint
file yields the *identical* run — same ``SimulationResult`` serialization,
same counters, byte-identical NDJSON telemetry — on both cycle loops,
under transient fault storms, permanent-fault schedules and deadlock
recovery.  The scenario matrix is shared with the fast-path equivalence
suite, which is the repo's canonical stress catalogue.
"""

import json
import pickle

import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.simulator import Simulator
from repro.serialization import config_to_dict, result_to_dict
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.export import write_ndjson
from repro.types import FaultSite

from tests.noc.test_fast_path_equivalence import SCENARIOS, _config

#: Both object-model cycle loops, through the ``activity_driven`` fixture
#: (``False`` swaps in the reference polling loop for the whole test).
both_loops = pytest.mark.parametrize(
    "activity_driven", [False, True], ids=["full", "active"], indirect=True
)

#: The stress catalogue, minus the fault-free warmups (they exercise
#: nothing the faulted ones don't).
RESUME_SCENARIOS = [
    "xy_link_faults",
    "west_first_all_fault_sites",
    "adaptive_deadlock_recovery",
    "e2e_protection",
    "xy_all_sites_alt_seed",
    "permanent_router_kill_with_transients",
    "permanent_storm_doa_and_vc",
]


def _observables(result):
    out = result_to_dict(result)
    out.pop("config")
    return out


def _interrupted_run(config, checkpoint_path, at_cycle):
    """Run to ``at_cycle``, snapshot, destroy the simulator ("crash"),
    then resume from the file and finish."""
    sim = Simulator(config)
    sim.run_to_cycle(at_cycle)
    save_checkpoint(sim, checkpoint_path)
    del sim  # the crash: no live state survives
    resumed = load_checkpoint(checkpoint_path)
    assert resumed.resumed_from_cycle == at_cycle
    return resumed.run()


class TestResumeEquivalence:
    @pytest.mark.parametrize("name", RESUME_SCENARIOS)
    @both_loops
    def test_midpoint_resume_is_bit_for_bit(self, name, activity_driven, tmp_path):
        config = _config(**SCENARIOS[name])
        golden = Simulator(config).run()
        midpoint = max(1, golden.cycles // 2)
        resumed = _interrupted_run(
            config, tmp_path / "mid.ckpt", midpoint
        )
        assert _observables(resumed) == _observables(golden)

    @both_loops
    def test_double_interruption(self, activity_driven, tmp_path):
        """Crashing a run that was itself resumed still converges to the
        golden result — checkpoints chain."""
        config = _config(**SCENARIOS["xy_link_faults"])
        golden = Simulator(config).run()
        first, second = golden.cycles // 3, 2 * golden.cycles // 3
        sim = Simulator(config)
        sim.run_to_cycle(first)
        save_checkpoint(sim, tmp_path / "a.ckpt")
        del sim
        sim = load_checkpoint(tmp_path / "a.ckpt")
        sim.run_to_cycle(second)
        save_checkpoint(sim, tmp_path / "b.ckpt")
        del sim
        resumed = load_checkpoint(tmp_path / "b.ckpt")
        assert resumed.resumed_from_cycle == second
        assert _observables(resumed.run()) == _observables(golden)

    @both_loops
    def test_resume_with_invariant_checks(self, activity_driven, tmp_path):
        """The sanitizer rides along in the snapshot and keeps auditing
        every cycle after the resume."""
        config = _config(
            invariant_checks=True,
            **{
                k: v
                for k, v in SCENARIOS["permanent_storm_doa_and_vc"].items()
            },
        )
        golden = Simulator(config).run()
        resumed = _interrupted_run(
            config, tmp_path / "san.ckpt", golden.cycles // 2
        )
        assert _observables(resumed) == _observables(golden)

    def test_resume_preserves_hit_cycle_limit(self, tmp_path):
        config = _config(**SCENARIOS["xy_link_faults"]).replace(
            workload=WorkloadConfig(
                injection_rate=0.05,
                num_messages=100_000,
                warmup_messages=20,
                max_cycles=400,
            )
        )
        golden = Simulator(config).run()
        assert golden.hit_cycle_limit
        resumed = _interrupted_run(config, tmp_path / "lim.ckpt", 200)
        assert resumed.hit_cycle_limit
        assert _observables(resumed) == _observables(golden)


class TestTelemetryByteEquality:
    @both_loops
    def test_ndjson_stream_is_byte_identical(self, activity_driven, tmp_path):
        config = _config(
            **SCENARIOS["permanent_router_kill_with_transients"]
        ).replace(telemetry=TelemetryConfig(enabled=True, metrics_interval=25))
        golden = Simulator(config).run()
        golden_path = tmp_path / "golden.ndjson"
        write_ndjson(
            golden.telemetry, golden_path, config=config_to_dict(config)
        )
        resumed = _interrupted_run(
            config, tmp_path / "tel.ckpt", golden.cycles // 2
        )
        resumed_path = tmp_path / "resumed.ndjson"
        write_ndjson(
            resumed.telemetry, resumed_path, config=config_to_dict(config)
        )
        assert golden_path.read_bytes() == resumed_path.read_bytes()


class TestAutoCheckpointing:
    def _auto_config(self, tmp_path):
        return _config(**SCENARIOS["xy_link_faults"]).replace(
            checkpoint_interval=100,
            checkpoint_path=str(tmp_path / "auto.ckpt"),
        )

    def test_schedule_writes_and_counts(self, tmp_path):
        config = self._auto_config(tmp_path)
        result = Simulator(config).run()
        written = result.counter("checkpoints_written")
        assert written == result.cycles // 100
        header = read_checkpoint_header(tmp_path / "auto.ckpt")
        assert header["cycle"] == (result.cycles // 100) * 100

    @both_loops
    def test_kill_and_resume_matches_uninterrupted(self, activity_driven, tmp_path):
        """The whole point: run with auto-checkpointing, 'crash' between
        checkpoints, resume from the file — counters included
        (``checkpoints_written`` agrees because the cycle-based schedule
        makes the resumed run rewrite the same remaining checkpoints)."""
        config = self._auto_config(tmp_path)
        golden = Simulator(config).run()
        assert golden.counter("checkpoints_written") > 1
        sim = Simulator(config)
        sim.run_to_cycle(250)  # dies between the cycle-200 and -300 snapshots
        del sim
        resumed_sim = load_checkpoint(config.checkpoint_path)
        assert resumed_sim.resumed_from_cycle == 200
        resumed = resumed_sim.run()
        assert _observables(resumed) == _observables(golden)

    def test_interval_requires_path(self):
        with pytest.raises(ValueError, match="set together"):
            SimulationConfig(checkpoint_interval=100)
        with pytest.raises(ValueError, match="set together"):
            SimulationConfig(checkpoint_path="x.ckpt")
        with pytest.raises(ValueError, match=">= 1"):
            SimulationConfig(checkpoint_interval=0, checkpoint_path="x.ckpt")

    def test_write_checkpoint_without_path_rejected(self):
        sim = Simulator(_config(**SCENARIOS["xy_fault_free"]))
        with pytest.raises(ValueError, match="no checkpoint path"):
            sim.write_checkpoint()


class TestContainerFormat:
    def _snapshot(self, tmp_path):
        sim = Simulator(_config(**SCENARIOS["xy_link_faults"]))
        sim.run_to_cycle(50)
        path = tmp_path / "snap.ckpt"
        save_checkpoint(sim, path)
        return path

    def test_header_readable_without_unpickling(self, tmp_path):
        path = self._snapshot(tmp_path)
        header = read_checkpoint_header(path)
        assert header["checkpoint_version"] == CHECKPOINT_VERSION
        assert header["schema"] == "repro/v1"
        assert header["cycle"] == 50
        assert header["config"]["noc"]["shape"] == [4, 4]
        assert header["payload_bytes"] > 0

    def test_fresh_simulator_has_no_resume_marker(self):
        assert Simulator(_config()).resumed_from_cycle is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = self._snapshot(tmp_path)
        raw = path.read_bytes()
        mutated = raw.replace(
            f'"checkpoint_version":{CHECKPOINT_VERSION}'.encode(),
            f'"checkpoint_version":{CHECKPOINT_VERSION + 1}'.encode(),
            1,
        )
        assert mutated != raw
        path.write_bytes(mutated)
        with pytest.raises(CheckpointError, match="not supported"):
            load_checkpoint(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path = self._snapshot(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-100] ^= 0xFF  # flip a byte deep in the pickle
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._snapshot(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated payload"):
            load_checkpoint(path)

    def test_wrong_payload_type_rejected(self, tmp_path):
        payload = pickle.dumps({"not": "a simulator"})
        import hashlib

        header = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        path = tmp_path / "wrong.ckpt"
        path.write_bytes(
            MAGIC + json.dumps(header).encode() + b"\n" + payload
        )
        with pytest.raises(CheckpointError, match="not a Simulator"):
            load_checkpoint(path)

    def _assert_refused_from_the_header(self, tmp_path, version, config):
        import hashlib

        payload = b"\x80\x04 an older Simulator graph; must never be loaded"
        header = {
            "schema": "repro/v1",
            "checkpoint_version": version,
            "cycle": 50,
            "config": config,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + payload)
        message = f"version {version} is not supported"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match=message):
            read_checkpoint_header(path)

    def test_v1_checkpoint_is_refused_before_unpickling(self, tmp_path):
        """A file written before the config became canonical (version 1,
        legacy config in the header) is a typed error — raised from the
        header, so its stale object graph is never unpickled."""
        assert CHECKPOINT_VERSION == 4
        self._assert_refused_from_the_header(
            tmp_path, 1, {"noc": {"width": 4, "height": 4}, "activity_driven": True}
        )

    def test_v2_checkpoint_is_refused_before_unpickling(self, tmp_path):
        """Version 2 graphs carry ``FaultInjector.log``; same typed error."""
        self._assert_refused_from_the_header(
            tmp_path, 2, {"noc": {"shape": [4, 4]}, "backend": "batched"}
        )

    def test_v3_checkpoint_is_refused_before_unpickling(self, tmp_path):
        """Version 3 graphs hold the network in its interfaces, samplers and
        kernel; same typed error."""
        self._assert_refused_from_the_header(
            tmp_path, 3, {"noc": {"shape": [4, 4]}, "backend": "object"}
        )

    def test_overwrite_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = self._snapshot(tmp_path)
        sim = load_checkpoint(path)
        sim.run_to_cycle(80)
        save_checkpoint(sim, path)
        assert read_checkpoint_header(path)["cycle"] == 80
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_config_roundtrips_checkpoint_fields(self, tmp_path):
        from repro.serialization import config_from_dict

        config = SimulationConfig(
            noc=NoCConfig(shape=(3, 3)),
            faults=FaultConfig(rates={FaultSite.LINK: 0.01}),
            checkpoint_interval=250,
            checkpoint_path=str(tmp_path / "rt.ckpt"),
        )
        again = config_from_dict(config_to_dict(config))
        assert again.checkpoint_interval == 250
        assert again.checkpoint_path == str(tmp_path / "rt.ckpt")
        assert again == config


class TestHeaderTruncation:
    """A crash can land mid-write anywhere; ``read_checkpoint_header`` must
    diagnose every prefix of a valid file instead of tracebacking (the
    supervisor calls it on whatever the dead worker left behind)."""

    def _snapshot(self, tmp_path):
        sim = Simulator(_config(**SCENARIOS["xy_link_faults"]))
        sim.run_to_cycle(30)
        path = tmp_path / "snap.ckpt"
        save_checkpoint(sim, path)
        return path

    def test_zero_length_file(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint_header(path)

    def test_partial_magic(self, tmp_path):
        path = tmp_path / "partial.ckpt"
        path.write_bytes(MAGIC[: len(MAGIC) // 2])
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint_header(path)

    def test_magic_only_no_header(self, tmp_path):
        path = tmp_path / "headerless.ckpt"
        path.write_bytes(MAGIC)
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            read_checkpoint_header(path)

    def test_header_cut_mid_json(self, tmp_path):
        whole = self._snapshot(tmp_path).read_bytes()
        header_end = whole.index(b"\n", len(MAGIC))
        path = tmp_path / "midjson.ckpt"
        # Cut inside the JSON header line: no terminating newline survives.
        path.write_bytes(whole[: len(MAGIC) + (header_end - len(MAGIC)) // 2])
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            read_checkpoint_header(path)

    def test_complete_header_line_with_broken_json(self, tmp_path):
        path = tmp_path / "garbled.ckpt"
        path.write_bytes(MAGIC + b'{"checkpoint_version": \n')
        with pytest.raises(CheckpointError, match="unparseable checkpoint header"):
            read_checkpoint_header(path)

    def test_every_prefix_of_a_real_checkpoint_is_diagnosed(self, tmp_path):
        """Sweep truncation points across magic + header: always a
        CheckpointError naming the file, never an uncaught exception."""
        whole = self._snapshot(tmp_path).read_bytes()
        header_end = whole.index(b"\n", len(MAGIC))
        path = tmp_path / "sweep.ckpt"
        for cut in range(header_end + 1):
            path.write_bytes(whole[:cut])
            with pytest.raises(CheckpointError, match="sweep.ckpt"):
                read_checkpoint_header(path)
