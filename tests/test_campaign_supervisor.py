"""The campaign runner's supervision: timeouts, crash isolation, resume.

These tests use real worker processes (the supervisor's whole point is
that SIGKILL-level failures cannot wedge it), so hang detection is
exercised with configs whose natural runtime is minutes against
sub-second watchdogs, and progress-despite-timeouts is calibrated against
the machine's measured simulation speed instead of hard-coded workloads.
"""

import os
import time

import pytest

from repro.campaign import run_campaign
from repro.checkpoint import save_checkpoint
from repro.config import NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.simulator import Simulator


def _small(**workload_kw):
    kw = dict(
        num_messages=120,
        warmup_messages=20,
        injection_rate=0.1,
        seed=3,
    )
    kw.update(workload_kw)
    return SimulationConfig(
        noc=NoCConfig(shape=(3, 3)), workload=WorkloadConfig(**kw)
    )


def _endless():
    """A config whose natural runtime is minutes — watchdog fodder."""
    return SimulationConfig(
        noc=NoCConfig(shape=(8, 8)),
        workload=WorkloadConfig(
            num_messages=50_000_000,
            warmup_messages=100,
            injection_rate=0.45,
            max_cycles=500_000_000,
        ),
    )


def _crashing():
    """Constructors accept it; the Simulator rejects the pattern at start."""
    return SimulationConfig(
        noc=NoCConfig(shape=(3, 3)),
        workload=WorkloadConfig(
            pattern="no_such_pattern", num_messages=50, warmup_messages=5
        ),
    )


class TestSupervisedBasics:
    def test_clean_run_matches_in_process_runner(self):
        config = _small()
        direct = Simulator(config).run()
        [row] = run_campaign([("v", config)])
        assert row.error is None
        assert row.avg_latency == direct.avg_latency
        assert row.counters == direct.counters
        assert row.metadata["attempts"] == 1
        assert row.metadata["resumed_from_cycle"] is None

    def test_crashing_variant_isolated(self):
        rows = run_campaign(
            [("bad", _crashing()), ("good", _small())],
            timeout=120.0,
            processes=2,
            lint=False,
        )
        by_name = {r.name: r for r in rows}
        assert by_name["bad"].failed
        assert "no_such_pattern" in by_name["bad"].error
        assert by_name["bad"].metadata["resumed_from_cycle"] is None
        assert not by_name["good"].failed

    def test_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            run_campaign([("v", _small())], timeout=0.0)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            run_campaign(
                [("v", _small())], checkpoint_dir="x", checkpoint_interval=0
            )


class TestTimeout:
    def test_hung_variant_killed_and_marked(self):
        """A variant that would run for minutes comes back as a failed
        row with error="timeout" in roughly the watchdog interval, and
        healthy variants sharing the pool still complete."""
        start = time.monotonic()
        rows = run_campaign(
            [("hang", _endless()), ("ok", _small())],
            processes=2,
            timeout=1.0,
            lint=False,
        )
        elapsed = time.monotonic() - start
        by_name = {r.name: r for r in rows}
        assert by_name["hang"].failed
        assert by_name["hang"].error == "timeout"
        assert by_name["hang"].metadata["attempts"] == 1
        assert not by_name["ok"].failed
        assert elapsed < 30.0  # killed, not joined to completion

    def test_timeout_with_checkpoints_reports_last_durable_cycle(
        self, tmp_path
    ):
        rows = run_campaign(
            [("hang", _endless())],
            timeout=3.0,
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=25,
            lint=False,
        )
        [row] = rows
        assert row.error == "timeout"
        # An 8x8 saturation run crosses cycle 25 within milliseconds, so
        # at least one checkpoint landed before the kill.
        assert row.metadata["last_checkpoint_cycle"] >= 25
        assert os.path.exists(tmp_path / "variant_0000.ckpt")


class TestResumeOnRetry:
    def test_retry_resumes_from_existing_checkpoint(self, tmp_path):
        """A checkpoint left behind by a killed attempt is picked up by
        the next attempt, which finishes with the same metrics as an
        uninterrupted run of the same config."""
        config = _small()
        [golden] = run_campaign([("v", config)])
        ckpt = tmp_path / "variant_0000.ckpt"
        sim = Simulator(
            config.replace(checkpoint_interval=50, checkpoint_path=str(ckpt))
        )
        sim.run_to_cycle(60)
        save_checkpoint(sim, ckpt)  # what a killed attempt leaves behind
        del sim
        [row] = run_campaign(
            [("v", config)],
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=50,
        )
        assert row.error is None
        assert row.metadata["resumed_from_cycle"] == 60
        assert row.avg_latency == golden.avg_latency
        assert row.packets_delivered == golden.packets_delivered
        assert not ckpt.exists()  # cleaned up after success

    def test_killed_attempts_accumulate_progress_to_completion(
        self, tmp_path
    ):
        """The headline behaviour: a watchdog window too short for the
        whole run still converges, because each attempt resumes from the
        last attempt's checkpoint instead of cycle 0.  The workload is
        calibrated to ~6 timeout windows on this machine."""
        probe_config = _small(num_messages=10_000_000, max_cycles=600)
        t0 = time.monotonic()
        probe = Simulator(probe_config)
        probe.run()
        cps = 600 / max(time.monotonic() - t0, 1e-6)
        timeout = 0.8
        total_cycles = max(int(cps * timeout * 6), 1200)
        config = _small(
            num_messages=10_000_000, max_cycles=total_cycles
        )
        [row] = run_campaign(
            [("long", config)],
            timeout=timeout,
            retries=40,
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=max(total_cycles // 50, 1),
            lint=False,
        )
        assert row.error is None, row.error
        assert row.metadata["attempts"] > 1
        assert row.metadata["resumed_from_cycle"] > 0
        # And the stitched-together run equals the uninterrupted one.
        [golden] = run_campaign([("long", config)], lint=False)
        assert row.avg_latency == golden.avg_latency
        assert row.packets_delivered == golden.packets_delivered


class TestLegacyRetriesFix:
    def test_attempts_recorded_in_metadata(self):
        rows = run_campaign(
            [("bad", _crashing())], retries=2, lint=False
        )
        assert rows[0].failed
        assert rows[0].metadata["attempts"] == 3

    def test_clean_run_single_attempt(self):
        rows = run_campaign([("v", _small())], retries=5)
        assert rows[0].metadata["attempts"] == 1


class TestAttemptErrors:
    def test_failed_attempts_recorded_in_order_supervised(self):
        [row] = run_campaign([("bad", _crashing())], retries=2, lint=False)
        errors = row.metadata["attempt_errors"]
        assert len(errors) == 3
        assert all("no_such_pattern" in e for e in errors)
        assert row.error == errors[-1]

    def test_clean_rows_omit_the_key(self):
        [row] = run_campaign([("v", _small())], retries=3)
        assert "attempt_errors" not in row.metadata


class TestCheckpointDiscard:
    """A corrupt/truncated checkpoint between attempts must not fail the
    variant: the retry discards it, restarts from cycle 0 and records the
    discard in metadata — no CheckpointError escapes."""

    def _run(self, tmp_path, config):
        return run_campaign(
            [("v", config)],
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=50,
        )

    def test_truncated_checkpoint_restarts_from_zero(self, tmp_path):
        config = _small()
        [golden] = run_campaign([("v", config)])
        ckpt = tmp_path / "variant_0000.ckpt"
        sim = Simulator(
            config.replace(checkpoint_interval=50, checkpoint_path=str(ckpt))
        )
        sim.run_to_cycle(60)
        save_checkpoint(sim, ckpt)
        del sim
        with open(ckpt, "r+b") as fh:  # a crash mid-write tears the file
            fh.truncate(40)
        [row] = self._run(tmp_path, config)
        assert row.error is None
        assert row.metadata["checkpoint_discarded"]
        assert row.metadata["resumed_from_cycle"] is None  # cycle-0 restart
        assert row.metadata["attempts"] == 1
        assert row.avg_latency == golden.avg_latency
        assert row.packets_delivered == golden.packets_delivered
        assert not ckpt.exists()

    def test_garbage_checkpoint_restarts_from_zero(self, tmp_path):
        config = _small()
        ckpt = tmp_path / "variant_0000.ckpt"
        ckpt.write_bytes(b"not a checkpoint at all" * 4)
        [row] = self._run(tmp_path, config)
        assert row.error is None
        assert row.metadata["checkpoint_discarded"]
        assert row.metadata["resumed_from_cycle"] is None

    def test_another_configs_checkpoint_is_not_resumed(self, tmp_path):
        """Two campaigns, one checkpoint directory: campaign A times out
        and leaves variant_0000.ckpt behind; campaign B's variant 0 is a
        different config and must not pick A's state up under its name."""
        [a] = run_campaign(
            [("a", _endless())],
            timeout=1.5,
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=25,
            lint=False,
        )
        assert a.error == "timeout"
        assert (tmp_path / "variant_0000.ckpt").exists()
        config = _small()
        golden = Simulator(config).run()
        cache_dir = tmp_path / "cache"
        rows, stats = run_campaign(
            [("b", config)],
            timeout=30.0,  # resuming A's endless run would never return
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=50,
            cache_dir=str(cache_dir),
            return_stats=True,
        )
        [b] = rows
        assert b.error is None
        assert "different config" in b.metadata["checkpoint_discarded"]
        assert b.metadata["resumed_from_cycle"] is None
        assert b.packets_delivered == golden.packets_delivered
        assert b.avg_latency == golden.avg_latency
        assert stats["checkpoints_discarded"] == 1
        # ... and what went into the cache under B's key is B's result.
        [warm] = run_campaign([("b", config)], cache_dir=str(cache_dir))
        assert warm.metadata["cache_hit"] is True
        assert warm.packets_delivered == golden.packets_delivered
