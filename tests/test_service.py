"""The campaign service layer: journal durability, content-addressed
cache, backoff policy, deadlines and in-process journal resume.

Process-level chaos (SIGKILLed workers and supervisors, stalled
watchdogs) lives in tools/chaos_campaign.py; these tests pin the unit
semantics the drill builds on — what each component guarantees when its
inputs are torn, duplicated, corrupted or late.
"""

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.campaign import run_campaign
from repro.config import NoCConfig, SimulationConfig, WorkloadConfig
from repro.serialization import config_to_dict
from repro.service import (
    JOURNAL_MAGIC,
    CampaignJournal,
    JournalError,
    ResultCache,
    RetryPolicy,
    cache_key,
    canonical_envelope,
    read_journal,
    replay,
    result_core,
    resume_campaign,
)
from repro.service.machine import JobState


def _small(**workload_kw):
    kw = dict(num_messages=120, warmup_messages=20, injection_rate=0.1, seed=3)
    kw.update(workload_kw)
    return SimulationConfig(
        noc=NoCConfig(shape=(3, 3)), workload=WorkloadConfig(**kw)
    )


def _crashing():
    return _small(pattern="no_such_pattern")


def _cut_journal(source, target, after):
    """Copy ``source`` up to and including the first record ``after``
    accepts — what a supervisor killed at that boundary leaves behind."""
    lines = Path(source).read_text().splitlines(keepends=True)
    end = next(
        i for i, line in enumerate(lines[2:], start=3) if after(json.loads(line))
    )
    Path(target).write_text("".join(lines[:end]))


def _endless():
    return SimulationConfig(
        noc=NoCConfig(shape=(8, 8)),
        workload=WorkloadConfig(
            num_messages=50_000_000,
            warmup_messages=100,
            injection_rate=0.45,
            max_cycles=500_000_000,
        ),
    )


_ROW = {
    "name": "v",
    "avg_latency": 10.0,
    "avg_hops": 2.0,
    "energy_per_packet_nj": 1.0,
    "throughput": 0.5,
    "packets_delivered": 100,
    "packets_lost": 0,
    "error": None,
    "counters": {"packets_sent": 100, "checkpoints_written": 3},
}


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path, {"processes": 2}) as journal:
            journal.append("queued", variant=0, name="v", config={"x": 1})
            journal.append("queued", variant=1, name="w", config={"x": 2})
            journal.append("leased", variant=0, attempt=1)
            journal.append("done", variant=0, row={"error": None})
        state = read_journal(path)
        assert state.meta["processes"] == 2
        assert not state.torn_tail
        campaign = replay(state.records)
        assert [job.name for job in campaign.jobs] == ["v", "w"]
        assert campaign.rows == [{"error": None}, None]
        assert [job.attempts for job in campaign.jobs] == [1, 0]
        assert [j.index for j in campaign.in_state(JobState.QUEUED)] == [1]

    def test_refuses_to_clobber_existing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CampaignJournal.create(path).close()
        with pytest.raises(JournalError, match="already exists"):
            CampaignJournal.create(path)

    def test_append_to_rejects_non_journal(self, tmp_path):
        path = tmp_path / "not_a_journal.txt"
        path.write_text("hello\n")
        with pytest.raises(JournalError, match="bad magic"):
            CampaignJournal.append_to(path)

    def test_torn_tail_is_tolerated_and_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path) as journal:
            journal.append("queued", variant=0, name="v", config={})
        with open(path, "a") as fh:  # what a SIGKILL mid-append leaves
            fh.write('{"type": "done", "vari')
        state = read_journal(path)
        assert state.torn_tail
        assert len(state.records) == 1  # the torn record never happened
        assert replay(state.records).rows == [None]

    def test_append_to_repairs_torn_tail(self, tmp_path):
        """Appending after a SIGKILL-torn tail must truncate the torn
        fragment first — otherwise the next record welds onto it and
        every later read rejects the file as corrupt mid-stream."""
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path) as journal:
            journal.append("queued", variant=0, name="v", config={})
        with open(path, "a") as fh:  # what a SIGKILL mid-append leaves
            fh.write('{"type": "done", "vari')
        with CampaignJournal.append_to(path) as journal:
            journal.append("resumed", finished=0, pending=1)
        state = read_journal(path)
        assert not state.torn_tail
        assert [r["type"] for r in state.records] == ["queued", "resumed"]

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path) as journal:
            journal.append("queued", variant=0, name="v", config={})
            journal.append("done", variant=0, row={"error": None})
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "garbage that is not JSON\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="line 3"):
            read_journal(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(JOURNAL_MAGIC + '\n{"journal_version": 99}\n')
        with pytest.raises(JournalError, match="version 99"):
            read_journal(path)

    def test_missing_and_headerless_files_raise(self, tmp_path):
        with pytest.raises(JournalError, match="no such journal"):
            read_journal(tmp_path / "absent.jsonl")
        torn_header = tmp_path / "torn.jsonl"
        torn_header.write_text(JOURNAL_MAGIC + '\n{"journal_ver')
        with pytest.raises(JournalError, match="never committed"):
            read_journal(torn_header)

    def test_attempt_history_replays(self, tmp_path):
        """attempt/checkpoint_discarded records are rehydrated so a
        resumed supervisor carries the pre-crash history."""
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path) as journal:
            journal.append("queued", variant=0, name="v", config={})
            journal.append("leased", variant=0, attempt=1)
            journal.append("attempt", variant=0, attempt=1, error="timeout")
            journal.append("leased", variant=0, attempt=2)
            journal.append("attempt", variant=0, attempt=2, error="crash")
            journal.append("leased", variant=0, attempt=3)
            journal.append("checkpoint_discarded", variant=0, error="torn")
        [job] = replay(read_journal(path).records).jobs
        assert job.attempt_errors == ["timeout", "crash"]
        assert job.checkpoint_discarded == "torn"
        assert (job.attempts, job.state) == (3, JobState.LEASED)


class TestCache:
    def test_key_ignores_supervision_infrastructure(self):
        base = config_to_dict(_small())
        checkpointed = dict(
            base, checkpoint_interval=50, checkpoint_path="v.ckpt"
        )
        assert cache_key(checkpointed) == cache_key(base)

    def test_key_tracks_the_experiment(self):
        a = config_to_dict(_small())
        b = config_to_dict(_small(seed=4))
        assert cache_key(a) != cache_key(b)

    def test_result_core_strips_checkpoint_counter(self):
        core = result_core(_ROW)
        assert "checkpoints_written" not in core["counters"]
        assert core["counters"]["packets_sent"] == 100
        assert "name" not in core  # naming is not part of the result

    def test_envelope_is_checkpoint_schedule_invariant(self):
        """The stored bytes must be identical no matter how the run was
        supervised — that is what makes cross-campaign hits sound."""
        base = config_to_dict(_small())
        supervised = dict(
            base, checkpoint_interval=50, checkpoint_path="v.ckpt"
        )
        bare_row = dict(_ROW, counters={"packets_sent": 100})
        assert canonical_envelope(base, bare_row) == canonical_envelope(
            supervised, _ROW
        )

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = config_to_dict(_small())
        key = cache_key(config)
        assert cache.get(key) is None
        cache.put(key, canonical_envelope(config, _ROW))
        assert cache.get(key) == result_core(_ROW)
        assert cache.get_bytes(key) == canonical_envelope(config, _ROW)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(config_to_dict(_small()))
        cache.path(key).write_text('{"torn": ')
        assert cache.get(key) is None
        cache.path(key).write_text('{"schema": "wrong/v9", "result": {}}')
        assert cache.get(key) is None


class TestRetryPolicy:
    def test_deterministic(self):
        a = RetryPolicy(seed=7).delay(3, 2)
        b = RetryPolicy(seed=7).delay(3, 2)
        assert a == b
        assert RetryPolicy(seed=8).delay(3, 2) != a

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base=0.1, factor=2.0, maximum=0.8, jitter=0.0)
        delays = [policy.delay(0, n) for n in range(1, 7)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 0.8, 0.8]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base=1.0, factor=1.0, maximum=1.0, jitter=0.5)
        for variant in range(20):
            delay = policy.delay(variant, 1)
            assert 1.0 <= delay < 1.5

    def test_none_retries_immediately(self):
        policy = RetryPolicy.none()
        assert policy.delay(0, 1) == 0.0
        assert policy.delay(5, 9) == 0.0

    def test_dict_round_trip(self):
        policy = RetryPolicy(base=0.2, factor=3.0, maximum=5.0, seed=11)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ValueError, match="base"):
            RetryPolicy(base=-1.0)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError, match="maximum"):
            RetryPolicy(base=2.0, maximum=1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)


class TestResultCacheCampaigns:
    def test_duplicate_variant_served_from_cache(self, tmp_path):
        config = _small()
        rows, stats = run_campaign(
            [("first", config), ("twin", config)],
            cache_dir=str(tmp_path / "cache"),
            return_stats=True,
        )
        first, twin = rows
        assert "cache_hit" not in first.metadata
        assert twin.metadata["cache_hit"] is True
        assert twin.metadata["attempts"] == 0
        assert twin.avg_latency == first.avg_latency
        assert twin.counters == first.counters
        assert stats["cache_hits"] == 1
        assert stats["cache_stores"] == 1

    def test_cross_campaign_hit(self, tmp_path):
        config = _small()
        cache_dir = str(tmp_path / "cache")
        [cold] = run_campaign([("v", config)], cache_dir=cache_dir)
        rows, stats = run_campaign(
            [("v", config)], cache_dir=cache_dir, return_stats=True
        )
        [warm] = rows
        assert warm.metadata["cache_hit"] is True
        assert warm.avg_latency == cold.avg_latency
        assert stats["cache_hits"] == 1
        assert stats["attempts"] == 0  # no worker ever spawned

    def test_cache_verify_rechecks_and_flags_mismatch(self, tmp_path):
        config = _small()
        cache_dir = tmp_path / "cache"
        run_campaign([("v", config)], cache_dir=str(cache_dir))
        rows, stats = run_campaign(
            [("v", config)],
            cache_dir=str(cache_dir),
            cache_verify=True,
            return_stats=True,
        )
        assert rows[0].metadata["cache_verified"] is True
        assert stats["cache_verified"] == 1
        assert stats["cache_hits"] == 0  # verify mode always re-runs
        # Tamper with the stored entry: verify must flag it and refresh.
        cache = ResultCache(cache_dir)
        key = cache_key(config_to_dict(config))
        entry = json.loads(cache.get_bytes(key))
        entry["result"]["avg_latency"] = -1.0
        cache.put(
            key,
            (json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
            .encode(),
        )
        rows, stats = run_campaign(
            [("v", config)],
            cache_dir=str(cache_dir),
            cache_verify=True,
            return_stats=True,
        )
        assert rows[0].metadata["cache_verified"] is False
        assert stats["cache_mismatches"] == 1
        assert cache.get(key)["avg_latency"] == rows[0].avg_latency


class TestCampaignDeadline:
    def test_deadline_degrades_gracefully(self):
        """When the whole-campaign deadline expires, unfinished variants
        come back as partial rows, finished ones keep their results, and
        the supervisor does not wait for stragglers to finish."""
        start = time.monotonic()
        rows, stats = run_campaign(
            [("ok", _small()), ("hang", _endless())],
            processes=2,
            deadline=3.0,
            deadline_grace=0.5,
            lint=False,
            return_stats=True,
        )
        elapsed = time.monotonic() - start
        by_name = {r.name: r for r in rows}
        assert not by_name["ok"].failed
        assert by_name["hang"].error == "campaign_deadline"
        assert stats["deadline_expired"] is True
        assert stats["deadline_failed"] == 1
        assert elapsed < 30.0

    def test_validation(self):
        with pytest.raises(ValueError, match="deadline"):
            run_campaign([("v", _small())], deadline=0.0)


class TestJournalResume:
    def test_completed_campaign_resumes_without_rerunning(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        [original] = run_campaign(
            [("v", _small())], journal_path=journal_path
        )
        before = read_journal(journal_path)
        rows, stats = resume_campaign(journal_path)
        [row] = rows
        assert row.avg_latency == original.avg_latency
        assert stats["attempts"] == 1  # carried, not re-spent
        assert stats["completed"] == 1  # pre-crash rows count in stats
        after = read_journal(journal_path)
        # Resume appended bookkeeping (resumed + summary), never a lease.
        new = after.records[len(before.records):]
        assert [r["type"] for r in new] == ["resumed", "summary"]

    def test_resume_runs_only_unfinished_variants(self, tmp_path):
        """A journal with one finished and one merely-queued variant (what
        a supervisor SIGKILL leaves behind) re-runs only the latter."""
        journal_path = str(tmp_path / "journal.jsonl")
        run_campaign([("v", _small())], journal_path=journal_path)
        with CampaignJournal.append_to(journal_path) as journal:
            journal.append(
                "queued",
                variant=1,
                name="w",
                config=config_to_dict(_small(seed=9)),
            )
        rows, stats = resume_campaign(journal_path)
        assert [r.name for r in rows] == ["v", "w"]
        assert all(r.error is None for r in rows)
        assert stats["attempts"] == 2  # one carried + one fresh lease
        assert stats["completed"] == 2  # one carried + one fresh result
        leases = [
            r for r in read_journal(journal_path).records
            if r["type"] == "leased"
        ]
        assert [r["variant"] for r in leases] == [0, 1]  # v never re-leased

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no such journal"):
            resume_campaign(str(tmp_path / "absent.jsonl"))

    def test_torn_tail_then_resume_round_trip(self, tmp_path):
        """The review repro: a supervisor SIGKILL tears the journal tail,
        a resume appends over it, and a *second* resume (after another
        crash) must still read the journal cleanly."""
        journal_path = str(tmp_path / "journal.jsonl")
        run_campaign([("v", _small())], journal_path=journal_path)
        with CampaignJournal.append_to(journal_path) as journal:
            journal.append(
                "queued",
                variant=1,
                name="w",
                config=config_to_dict(_small(seed=9)),
            )
        with open(journal_path, "a") as fh:  # SIGKILL tears the tail
            fh.write('{"type": "leased", "vari')
        rows, _ = resume_campaign(journal_path)
        assert [r.name for r in rows] == ["v", "w"]
        assert all(r.error is None for r in rows)
        # Nothing welded onto the torn fragment: the journal reads back
        # cleanly and a second resume is a no-op replay.
        state = read_journal(journal_path)
        assert not state.torn_tail
        assert all(replay(state.records).rows)
        rows, stats = resume_campaign(journal_path)
        assert all(r.error is None for r in rows)
        assert stats["completed"] == 2

    def test_resume_refuses_mid_enqueue_prefix(self, tmp_path):
        """A supervisor crash mid-enqueue journals only a prefix of the
        work list; resuming would silently drop the missing variants, so
        resume must refuse instead."""
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path, {"variants": 3}) as journal:
            journal.append(
                "queued", variant=0, name="v", config=config_to_dict(_small())
            )
            journal.append(
                "queued",
                variant=1,
                name="w",
                config=config_to_dict(_small(seed=9)),
            )
        with pytest.raises(JournalError, match="2 of 3 queued variants"):
            resume_campaign(str(path))

    def test_resume_no_cache_overrides_recorded_cache_dir(self, tmp_path):
        """--no-cache on resume must beat the cache_dir recorded in the
        journal header, not silently fall back to it."""
        config = _small()
        cache_dir = str(tmp_path / "cache")
        run_campaign([("v", config)], cache_dir=cache_dir)  # warm the cache
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(
            path, {"variants": 1, "cache_dir": cache_dir}
        ) as journal:
            journal.append(
                "queued", variant=0, name="v", config=config_to_dict(config)
            )
        pristine = tmp_path / "journal2.jsonl"
        pristine.write_bytes(path.read_bytes())
        rows, stats = resume_campaign(str(path), no_cache=True)
        assert rows[0].error is None
        assert "cache_hit" not in rows[0].metadata
        assert stats["cache_hits"] == 0
        # Sanity: without the override the recorded cache_dir serves it.
        rows, stats = resume_campaign(str(pristine))
        assert rows[0].metadata["cache_hit"] is True
        assert stats["cache_hits"] == 1

    def test_journal_records_full_lifecycle(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        rows = run_campaign(
            [("v", _small()), ("w", _small(seed=5))],
            journal_path=journal_path,
        )
        assert all(r.error is None for r in rows)
        state = read_journal(journal_path)
        assert state.meta["variants"] == 2
        kinds = [r["type"] for r in state.records]
        assert kinds.count("queued") == 2
        assert kinds.count("leased") == 2
        assert kinds.count("done") == 2
        assert kinds[-1] == "summary"
        assert state.records[0]["config_sha256"] == cache_key(
            state.records[0]["config"]
        )
        assert all(replay(state.records).rows)


class TestSettings:
    """One validated settings value for both entry points, recorded in
    the journal header by the runner itself."""

    def test_resume_validates_overrides(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        run_campaign([("v", _small())], journal_path=journal_path)
        before = Path(journal_path).read_bytes()
        with pytest.raises(ValueError, match="processes"):
            resume_campaign(journal_path, processes=0)  # used to spin forever
        with pytest.raises(ValueError, match="retries"):
            resume_campaign(journal_path, retries=-1)
        with pytest.raises(TypeError, match="procceses"):
            resume_campaign(journal_path, procceses=2)
        assert Path(journal_path).read_bytes() == before  # not even "resumed"

    @pytest.mark.parametrize(
        "doctored, message",
        [
            ({"processes": 0}, "processes"),
            ({"processes": "many"}, "processes"),
            ({"timeout": -1.0}, "timeout"),
            ({"checkpoint_interval": 0}, "checkpoint_interval"),
            ({"backoff": {"base": -1.0}}, "base"),
            ({"backoff": {"no_such_knob": 1}}, "backoff"),
        ],
    )
    def test_resume_validates_the_header(self, tmp_path, doctored, message):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path, dict(doctored, variants=1)) as journal:
            journal.append(
                "queued", variant=0, name="v", config=config_to_dict(_small())
            )
        with pytest.raises(ValueError, match=message):
            resume_campaign(str(path))

    def test_unusable_records_are_a_journal_error(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal.create(path) as journal:
            journal.append("queued", variant=0, name="v", config={})
            journal.append("done", variant=0, row={"error": None})
            journal.append("leased", variant=0, attempt=2)  # after done?
        with pytest.raises(JournalError, match="unusable record"):
            resume_campaign(str(path))

    def test_api_journal_resumes_under_its_own_settings_and_whole_stats(
        self, tmp_path
    ):
        """An API-started journal used to record no settings (only the CLI
        did), so this resume silently ran with retries=0 and no
        checkpoints — and its stats forgot the pre-cut retry."""
        from repro import api

        journal_path = tmp_path / "journal.jsonl"
        policy = RetryPolicy(base=0.01, maximum=0.01, jitter=0.0, seed=5)
        api.campaign(
            [("bad", _crashing())],
            lint=False,
            retries=2,
            timeout=60.0,
            backoff=policy,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=40,
            journal_path=str(journal_path),
        )
        meta = read_journal(journal_path).meta
        assert (meta["retries"], meta["timeout"]) == (2, 60.0)
        assert meta["checkpoint_dir"] == str(tmp_path / "ckpt")
        assert meta["checkpoint_interval"] == 40
        assert RetryPolicy.from_dict(meta["backoff"]) == policy

        cut = tmp_path / "cut.jsonl"
        _cut_journal(journal_path, cut, lambda r: r["type"] == "attempt")
        [row], stats = resume_campaign(str(cut))  # no keywords at all
        assert row.failed
        assert row.metadata["attempts"] == 3  # retries=2 was honoured
        assert len(row.metadata["attempt_errors"]) == 3
        # Every counter covers the whole campaign, pre-cut share included.
        assert (stats["attempts"], stats["retries"]) == (3, 2)
        assert stats["backoff_total_s"] == pytest.approx(0.02)
        summary = read_journal(cut).records[-1]
        assert summary["type"] == "summary" and summary["stats"] == stats


class TestParentJournalCompat:
    FIXTURE = (
        Path(__file__).parent / "fixtures" / "journals" / "parent_f345f68_cut.jsonl"
    )

    def test_journal_cut_at_the_parent_commit_resumes_to_golden_rows(
        self, tmp_path
    ):
        """Written by commit f345f68's runner and cut mid-campaign: v0 done,
        ``bad`` in its retry backoff, v2 leased (orphaned), v3 only queued."""
        journal_path = tmp_path / "journal.jsonl"
        shutil.copy(self.FIXTURE, journal_path)
        campaign = replay(read_journal(journal_path).records)
        assert [job.state for job in campaign.jobs] == [
            JobState.FINISHED, JobState.QUEUED, JobState.LEASED, JobState.QUEUED,
        ]
        variants = [(job.name, job.config) for job in campaign.jobs]

        rows, stats = resume_campaign(
            str(journal_path), retries=1, backoff=RetryPolicy.none()
        )
        from repro.campaign import campaign_row_to_dict
        from repro.serialization import config_from_dict

        golden = run_campaign(
            [(name, config_from_dict(config)) for name, config in variants],
            lint=False,
            retries=1,
            backoff=RetryPolicy.none(),
        )
        assert [r.name for r in rows] == ["v0", "bad", "v2", "v3"]
        assert [result_core(campaign_row_to_dict(r)) for r in rows] == [
            result_core(campaign_row_to_dict(r)) for r in golden
        ]
        assert [r.metadata["attempts"] for r in rows] == [1, 2, 2, 1]
        assert stats["attempts"] == 6 and stats["retries"] == 1
        assert (stats["completed"], stats["failed"]) == (3, 1)

    def test_failed_row_for_a_missing_component_still_reads_and_resumes(
        self, tmp_path
    ):
        """Written by commit 19114c3, whose lint pass let ``99:east`` on a
        3x3 through to the workers: the ``ghost`` variant failed there after
        its retry.  Such a config is refused by lint now, but not by the
        constructors, so the recorded rows still load."""
        journal_path = tmp_path / "journal.jsonl"
        shutil.copy(
            self.FIXTURE.with_name("parent_19114c3_ghost_site.jsonl"), journal_path
        )
        rows, stats = resume_campaign(str(journal_path))
        assert [(r.name, r.failed) for r in rows] == [("ok", False), ("ghost", True)]
        assert rows[1].error == (
            "ValueError: permanent fault names node 99 but the topology "
            "has 9 nodes"
        )
        assert rows[1].metadata["attempts"] == 2
        assert (stats["completed"], stats["failed"]) == (1, 1)
