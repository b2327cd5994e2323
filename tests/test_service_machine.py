"""The campaign state machine, with no process, clock or file anywhere.

Two layers:

* a table over every ``(state, event)`` pair for ``decide`` and every
  ``(state, record type)`` pair for ``apply`` — the illegal ones must raise
  and leave the job untouched;
* a Hypothesis property driving a model supervisor (Hypothesis picks which
  job moves next, where the deadline falls and where the supervisor is cut)
  that checks, after *every* emitted record, that replaying the records so
  far through ``apply`` reproduces the live job states and counters — and,
  for deadline-free schedules, that a cut + resume run to completion ends
  in the same result rows as the uncut run.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.cache import result_core
from repro.service.machine import (
    CacheHit,
    Campaign,
    Died,
    Enqueue,
    Expired,
    Finished,
    IllegalTransition,
    Job,
    JobState,
    Launch,
    TimedOut,
    apply,
    decide,
    failed_row,
    replay,
)
from repro.service.policy import CampaignSettings, RetryPolicy

NEW, QUEUED, LEASED, FINISHED = JobState

CONFIG = {"workload": {"seed": 1}}
CORE = {
    "avg_latency": 10.0,
    "avg_hops": 2.0,
    "energy_per_packet_nj": 1.0,
    "throughput": 0.5,
    "packets_delivered": 100,
    "packets_lost": 0,
    "counters": {"packets_sent": 100},
    "error": None,
}
OK_ROW = dict(CORE, name="v", config=CONFIG, resumed_from_cycle=None)
BAD_ROW = dict(failed_row("v", CONFIG, "ValueError: boom"), resumed_from_cycle=40)
ONE_RETRY = CampaignSettings(retries=1, backoff=RetryPolicy(jitter=0.0, base=0.25))


def job_in(state, attempts=0, errors=()):
    job = Job(0, "v", CONFIG, "k" * 64)
    job.state, job.attempts, job.attempt_errors = state, attempts, list(errors)
    return job


def kinds(records):
    return [r["type"] for r in records]


EVENTS = {
    "enqueue": Enqueue(),
    "launch": Launch(),
    "cache_hit": CacheHit(CORE),
    "finished": Finished(OK_ROW),
    "died": Died(-9),
    "timed_out": TimedOut(),
    "expired": Expired(),
}

#: state → event → (record types, actions); absent pairs are illegal.
LEGAL = {
    NEW: {"enqueue": (["queued"], [])},
    QUEUED: {
        "launch": (["leased"], [("spawn",)]),
        "cache_hit": (["cache_hit", "done"], []),
        "expired": (["failed"], []),
    },
    LEASED: {
        "finished": (["done"], [("drop_checkpoint",)]),
        "died": (["attempt"], [("requeue", 0.25)]),
        "timed_out": (["attempt"], [("requeue", 0.25)]),
        "expired": (["failed"], []),
    },
    FINISHED: {},
}


class TestDecideTable:
    @pytest.mark.parametrize("event_name", sorted(EVENTS))
    @pytest.mark.parametrize("state", list(JobState))
    def test_every_state_event_pair(self, state, event_name):
        job = job_in(state, attempts=1 if state is LEASED else 0)
        before = copy.deepcopy(job)
        expected = LEGAL[state].get(event_name)
        if expected is None:
            with pytest.raises(IllegalTransition, match=state.value):
                decide(job, EVENTS[event_name], ONE_RETRY)
        else:
            records, actions = decide(job, EVENTS[event_name], ONE_RETRY)
            assert (kinds(records), actions) == expected
            assert all(r["variant"] == 0 for r in records)
        assert job == before  # decide never mutates

    def test_cache_is_only_consulted_before_the_first_attempt(self):
        # A lease orphaned by a supervisor crash leaves attempts=1, QUEUED.
        with pytest.raises(IllegalTransition, match="1 attempt"):
            decide(job_in(QUEUED, attempts=1), CacheHit(CORE), ONE_RETRY)

    def test_launch_numbers_the_next_attempt(self):
        [lease], _ = decide(job_in(QUEUED, attempts=2), Launch(), ONE_RETRY)
        assert lease == {"type": "leased", "variant": 0, "attempt": 3}

    def test_cache_hit_row(self):
        _, done = decide(job_in(QUEUED), CacheHit(CORE), ONE_RETRY)[0]
        assert done["row"] == dict(
            CORE, name="v", config=CONFIG, cache_hit=True, attempts=0
        )

    def test_failure_retries_until_the_budget_is_spent(self):
        retry, actions = decide(job_in(LEASED, 1), Finished(BAD_ROW), ONE_RETRY)
        assert retry == [
            {
                "type": "attempt",
                "variant": 0,
                "attempt": 1,
                "error": "ValueError: boom",
                "retry_in": 0.25,
            }
        ]
        assert actions == [("requeue", 0.25)]
        spent = job_in(LEASED, 2, errors=["ValueError: boom"])
        [failed], actions = decide(spent, Finished(BAD_ROW), ONE_RETRY)
        assert failed["type"] == "failed" and actions == []
        assert failed["row"]["attempts"] == 2
        assert failed["row"]["attempt_errors"] == ["ValueError: boom"] * 2
        assert failed["row"]["resumed_from_cycle"] == 40

    def test_timeout_is_its_own_terminal_and_reports_the_durable_cycle(self):
        [record], _ = decide(job_in(LEASED, 1), TimedOut(3200), CampaignSettings())
        assert record["type"] == "timeout"
        assert record["row"]["error"] == "timeout"
        assert record["row"]["last_checkpoint_cycle"] == 3200
        assert record["row"]["resumed_from_cycle"] is None

    def test_died_names_the_exit_code(self):
        [record], _ = decide(job_in(LEASED, 1), Died(-9), CampaignSettings())
        assert record["type"] == "failed"
        assert record["row"]["error"] == (
            "worker died without a result (exit code -9)"
        )

    @pytest.mark.parametrize("error", [None, "ValueError: boom"])
    def test_discard_is_journaled_before_the_outcome(self, error):
        row = dict(OK_ROW if error is None else BAD_ROW, checkpoint_discarded="torn")
        records, _ = decide(job_in(LEASED, 1), Finished(row), ONE_RETRY)
        assert kinds(records) == [
            "checkpoint_discarded",
            "done" if error is None else "attempt",
        ]
        assert records[0] == {
            "type": "checkpoint_discarded",
            "variant": 0,
            "attempt": 1,
            "error": "torn",
        }

    def test_earlier_discard_and_errors_reach_the_final_row(self):
        job = job_in(LEASED, 2, errors=["timeout"])
        job.checkpoint_discarded = "torn"
        [done], _ = decide(job, Finished(OK_ROW), ONE_RETRY)
        assert done["row"]["checkpoint_discarded"] == "torn"
        assert done["row"]["attempt_errors"] == ["timeout"]
        assert done["row"]["attempts"] == 2

    @pytest.mark.parametrize("verdict", [True, False])
    def test_cache_verify_verdict(self, verdict):
        records, _ = decide(
            job_in(LEASED, 1), Finished(OK_ROW, verdict), CampaignSettings()
        )
        assert kinds(records) == (["done"] if verdict else ["cache_mismatch", "done"])
        assert records[-1]["row"]["cache_verified"] is verdict

    def test_expired_lease_keeps_its_history_but_is_no_attempt_error(self):
        [failed], _ = decide(job_in(LEASED, 2, ["timeout"]), Expired(), ONE_RETRY)
        assert failed["row"]["error"] == "campaign_deadline"
        assert failed["row"]["attempt_errors"] == ["timeout"]


APPLY_LEGAL = {
    "queued": {NEW: QUEUED},
    "leased": {QUEUED: LEASED},
    "attempt": {LEASED: QUEUED},
    "checkpoint_discarded": {LEASED: LEASED},
    "cache_hit": {QUEUED: QUEUED},
    "cache_mismatch": {LEASED: LEASED},
    "done": {QUEUED: FINISHED, LEASED: FINISHED},
    "failed": {QUEUED: FINISHED, LEASED: FINISHED},
    "timeout": {LEASED: FINISHED},
}
RECORDS = {
    "queued": {"name": "v", "config": CONFIG},
    "leased": {"attempt": 1},
    "attempt": {"attempt": 1, "error": "timeout", "retry_in": 0.5},
    "checkpoint_discarded": {"attempt": 1, "error": "torn"},
    "cache_hit": {"key": "k"},
    "cache_mismatch": {"key": "k"},
    "done": {"row": OK_ROW},
    "failed": {"row": dict(BAD_ROW, error="campaign_deadline")},
    "timeout": {"row": dict(BAD_ROW, error="timeout")},
}


def campaign_in(state):
    campaign = Campaign([("v", CONFIG, "k")])
    campaign.jobs[0].state = state
    return campaign


class TestApplyTable:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @pytest.mark.parametrize("state", list(JobState))
    def test_every_state_record_pair(self, state, kind):
        campaign = campaign_in(state)
        before = copy.deepcopy((campaign.jobs, campaign.counters))
        record = dict(RECORDS[kind], type=kind, variant=0)
        after = APPLY_LEGAL[kind].get(state)
        if after is None:
            with pytest.raises(IllegalTransition):
                apply(campaign, record)
            assert (campaign.jobs, campaign.counters) == before
        else:
            apply(campaign, record)
            assert campaign.jobs[0].state is after

    def test_counters_are_a_fold_of_the_records(self):
        campaign = campaign_in(NEW)
        for kind in ("queued", "leased", "checkpoint_discarded", "attempt"):
            apply(campaign, dict(RECORDS[kind], type=kind, variant=0))
        apply(campaign, {"type": "leased", "variant": 0, "attempt": 2})
        apply(campaign, dict(RECORDS["timeout"], type="timeout", variant=0))
        counters = campaign.counters
        assert counters["attempts"] == 2 and counters["retries"] == 1
        assert counters["timeouts"] == 2  # the retried one and the final one
        assert counters["backoff_total_s"] == 0.5
        assert counters["checkpoints_discarded"] == 1
        assert (counters["completed"], counters["failed"]) == (0, 1)
        [job] = campaign.jobs
        assert job.attempt_errors == ["timeout"]
        assert job.checkpoint_discarded == "torn"

    def test_resumed_voids_leases_and_the_expired_deadline(self):
        campaign = campaign_in(LEASED)
        apply(campaign, {"type": "deadline", "in_flight": [0], "queued": []})
        assert campaign.counters["deadline_expired"] is True
        apply(campaign, {"type": "resumed", "finished": 0, "pending": 1})
        assert campaign.jobs[0].state is QUEUED
        assert campaign.counters["deadline_expired"] is False

    def test_deadline_rows_are_counted(self):
        campaign = campaign_in(QUEUED)
        apply(campaign, dict(RECORDS["failed"], type="failed", variant=0))
        assert campaign.counters["deadline_failed"] == 1

    def test_unknown_variant_and_vocabulary(self):
        campaign = campaign_in(QUEUED)
        with pytest.raises(IllegalTransition, match="unknown variant"):
            apply(campaign, {"type": "leased", "variant": 7, "attempt": 1})
        apply(campaign, {"type": "summary", "stats": {}})  # no effect
        apply(campaign, {"type": "from_the_future"})
        assert campaign.jobs[0].state is QUEUED

    def test_replay_requires_queue_order(self):
        queued = dict(RECORDS["queued"], type="queued")
        with pytest.raises(IllegalTransition, match="queue order"):
            replay([dict(queued, variant=1), dict(queued, variant=0)])


# -- the model supervisor ----------------------------------------------------------


class Cut(Exception):
    """The supervisor died right after committing a record."""


class Model:
    """What runner.py's driver does, minus everything that touches the
    world: worker outcomes come from a per-variant script, and Hypothesis
    chooses the interleaving."""

    def __init__(self, scripts, settings, cuts=()):
        self.scripts = scripts
        self.settings = settings
        self.cuts = set(cuts)
        self.log = []
        self.campaign = self.fresh()
        #: Fed a private copy of each record, one at a time: what a replay
        #: of the first k records looks like, for every k.
        self.replayed = self.fresh()
        self.resumes = 0

    def fresh(self):
        return Campaign(
            (f"v{i}", {"workload": {"seed": i}}, f"key{i}")
            for i in range(len(self.scripts))
        )

    def commit(self, record):
        self.log.append(record)
        apply(self.campaign, record)
        apply(self.replayed, copy.deepcopy(record))
        # The property: the records so far, replayed, *are* the live state.
        assert snapshot(self.replayed) == snapshot(self.campaign)
        if len(self.log) in self.cuts:
            raise Cut

    def feed(self, job, event):
        records, _actions = decide(job, event, self.settings)
        for record in records:
            self.commit(record)

    def resume(self):
        self.resumes += 1
        self.campaign = replay(copy.deepcopy(self.log))  # as read from disk
        assert snapshot(self.campaign) == snapshot(self.replayed)
        finished = len(self.campaign.in_state(FINISHED))
        self.commit(
            {
                "type": "resumed",
                "finished": finished,
                "pending": len(self.campaign.jobs) - finished,
            }
        )

    def outcome(self, job):
        """The scripted end of ``job``'s current attempt."""
        script = self.scripts[job.index]
        row = dict(result_row(job), resumed_from_cycle=None)
        if job.attempts in script["discards"]:
            row["checkpoint_discarded"] = f"torn before attempt {job.attempts}"
        if script["succeeds_at"] is not None and job.attempts >= script["succeeds_at"]:
            return Finished(row)
        if script["fails_by"] == "timeout":
            return TimedOut(job.attempts * 100)
        if script["fails_by"] == "died":
            return Died(-9)
        return Finished(dict(row, **failed_row(job.name, job.config, "Boom: x")))

    def moves(self):
        expired = self.campaign.counters["deadline_expired"]
        out = []
        for job in self.campaign.in_state(QUEUED):
            if expired:
                out.append((job, Expired()))
            elif self.scripts[job.index]["cached"] and job.attempts == 0:
                out.append((job, CacheHit(result_core(result_row(job)))))
            else:
                out.append((job, Launch()))
        for job in self.campaign.in_state(LEASED):
            out.append((job, self.outcome(job)))
            if expired:  # the grace period ran out first
                out.append((job, Expired()))
        return out

    def run(self, choices=(), deadline_after=None):
        choices = list(choices)
        try:
            for job in self.campaign.in_state(NEW):
                self.feed(job, Enqueue())
        except Cut:
            # Mid-enqueue: only a prefix is journaled; resume refuses that
            # (the header's variant count), so the model stops here too.
            return None
        steps, crashed = 0, False
        while True:
            try:
                if crashed:
                    self.resume()
                    crashed = False
                moves = self.moves()
                if not moves:
                    return self.campaign
                if steps == deadline_after:
                    deadline_after = None
                    self.commit({"type": "deadline", "in_flight": [], "queued": []})
                    continue
                job, event = moves[(choices.pop() if choices else 0) % len(moves)]
                steps += 1
                self.feed(job, event)
            except Cut:
                crashed = True


def result_row(job):
    seed = job.config["workload"]["seed"]
    return dict(CORE, name=job.name, config=job.config, packets_delivered=100 + seed)


def snapshot(campaign):
    return (
        [
            (j.state, j.attempts, list(j.attempt_errors), j.checkpoint_discarded, j.row)
            for j in campaign.jobs
        ],
        dict(campaign.counters),
    )


RETRIES = 2
SETTINGS = CampaignSettings(retries=RETRIES)

script = st.fixed_dictionaries(
    {
        "succeeds_at": st.one_of(st.none(), st.integers(1, RETRIES + 1)),
        "fails_by": st.sampled_from(["crash", "timeout", "died"]),
        "discards": st.sets(st.integers(1, RETRIES + 2), max_size=2),
        "cached": st.booleans(),
    }
).map(lambda s: dict(s, cached=s["cached"] and s["succeeds_at"] is not None))
scripts = st.lists(script, min_size=1, max_size=4)
choices = st.lists(st.integers(0, 11), max_size=40)
cuts = st.lists(st.integers(1, 60), max_size=3, unique=True)


class TestReplayEqualsLive:
    @settings(max_examples=150, deadline=None)
    @given(scripts, choices, cuts, st.one_of(st.none(), st.integers(0, 12)))
    def test_every_prefix_replays_to_the_live_state(
        self, scripts, choices, cuts, deadline_after
    ):
        """Any interleaving of launches, cache hits, outcomes, discards, a
        deadline and supervisor cuts: the assertion lives in Model.commit."""
        model = Model(scripts, SETTINGS, cuts)
        campaign = model.run(choices, deadline_after)
        if campaign is not None:
            assert all(job.state is FINISHED for job in campaign.jobs)

    @settings(max_examples=150, deadline=None)
    @given(scripts, choices, cuts)
    def test_cut_and_resume_ends_in_the_uncut_rows(self, scripts, choices, cuts):
        uncut = Model(scripts, SETTINGS).run()
        resumed = Model(scripts, SETTINGS, cuts).run(choices)
        if resumed is not None:
            assert [result_core(row) for row in resumed.rows] == [
                result_core(row) for row in uncut.rows
            ]

    def test_retry_discard_deadline_interleaving(self):
        """The PR 10 review shape, pinned: a variant retried once with a
        discarded checkpoint, the supervisor cut between the discard record
        and the attempt record, then the deadline catching the variant in
        its backoff — the final row still carries the whole history."""
        scripts = [
            {"succeeds_at": None, "fails_by": "crash", "discards": {1}, "cached": False}
        ]
        model = Model(scripts, SETTINGS, cuts=[3])  # queued, leased, discard | cut
        campaign = model.run(deadline_after=4)
        assert model.resumes == 1
        assert kinds(model.log) == [
            "queued",
            "leased",
            "checkpoint_discarded",
            "resumed",
            "leased",
            "attempt",
            "deadline",
            "failed",
        ]
        [row] = campaign.rows
        assert row["error"] == "campaign_deadline"
        assert row["attempts"] == 2 and row["attempt_errors"] == ["Boom: x"]
        assert row["checkpoint_discarded"] == "torn before attempt 1"
        counters = campaign.counters
        assert counters["attempts"] == 2 and counters["retries"] == 1
        assert counters["checkpoints_discarded"] == 1
        assert counters["deadline_failed"] == 1 and counters["failed"] == 1
