"""The durable campaign supervisor: a thin driver around the state machine.

Every decision — what to journal, whether to retry, what the final row
says — is :func:`repro.service.machine.decide`'s, and every change of job
state is :func:`repro.service.machine.apply`'s.  Left here is what touches
the world: watchdogged worker processes (one per attempt, SIGKILL on
wall-clock overrun), their sentinels and result files, the ready heap and
its clocks, and the journal, cache and checkpoint I/O.  Resume applies the
journal's records through the same ``apply`` and carries on.

Supervision is event-driven: the loop blocks in
:func:`multiprocessing.connection.wait` on the worker process sentinels
(with a timeout bounded by the nearest watchdog/backoff/deadline edge)
instead of polling on a fixed ``sleep`` — idle supervision of a long
campaign costs no CPU.

All wall-clock reads here are supervisor infrastructure, never simulation
state, hence the ``# det: ok`` markers (docs/VERIFICATION.md, DET003).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import suppress
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.cache import ResultCache, cache_key, canonical_envelope
from repro.service.journal import CampaignJournal, JournalError, read_journal
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
from repro.service.policy import CampaignSettings

__all__ = ["resume_campaign", "run_service_campaign"]


def _worker(
    name: str,
    config_dict: Dict[str, Any],
    ckpt_path: Optional[str],
    ckpt_interval: int,
    result_path: str,
) -> None:
    """Child-process entry point for one attempt.

    Communicates through an atomically-written JSON result file rather
    than a pipe/queue, so a SIGKILL from the watchdog (or the OOM killer)
    can never leave the supervisor holding a half-readable message: either
    the file exists and is complete, or the attempt is treated as crashed.

    Resumes from ``ckpt_path`` when a previous attempt left one behind; a
    checkpoint that turns out corrupt or truncated — or written for a
    *different* config (another campaign's file under this variant's
    name) — is *discarded*: the attempt restarts from cycle 0 and reports
    the discard on ``row["checkpoint_discarded"]``, instead of failing the
    variant on an artifact of a crash or returning another experiment's
    result.
    """
    from repro.noc.simulator import Simulator
    from repro.serialization import config_from_dict

    resumed: Optional[int] = None
    discarded: Optional[str] = None
    sim = None
    try:
        if ckpt_path is not None and os.path.exists(ckpt_path):
            from repro.checkpoint import (
                CheckpointError,
                load_checkpoint,
                read_checkpoint_header,
            )

            try:
                recorded = read_checkpoint_header(ckpt_path).get("config")
                if not isinstance(recorded, dict) or cache_key(
                    recorded
                ) != cache_key(config_dict):
                    raise CheckpointError(
                        f"{ckpt_path}: checkpoint was written for a "
                        "different config"
                    )
                sim = load_checkpoint(ckpt_path)
                resumed = sim.resumed_from_cycle
            except CheckpointError as exc:
                discarded = str(exc)
                with suppress(OSError):
                    os.unlink(ckpt_path)
        if sim is None:
            config = config_from_dict(config_dict)
            if ckpt_path is not None:
                config = config.replace(
                    checkpoint_interval=ckpt_interval,
                    checkpoint_path=ckpt_path,
                )
            sim = Simulator(config)
        result = sim.run()
        row = {
            "name": name,
            "config": config_dict,
            "avg_latency": result.avg_latency,
            "avg_hops": result.avg_hops,
            "energy_per_packet_nj": result.energy_per_packet_nj,
            "throughput": result.throughput_flits_per_node_cycle,
            "packets_delivered": result.packets_delivered,
            "packets_lost": result.packets_lost,
            "counters": dict(result.counters),
            "error": None,
        }
    except Exception as exc:  # noqa: BLE001 — the row carries the error
        row = failed_row(name, config_dict, f"{type(exc).__name__}: {exc}")
    row["resumed_from_cycle"] = resumed
    if discarded is not None:
        row["checkpoint_discarded"] = discarded
    tmp = f"{result_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(row, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, result_path)


class _Supervisor:
    """The driver's working set: the machine's campaign, the processes in
    flight, the ready heap, and the counters no record carries."""

    def __init__(
        self,
        campaign: Campaign,
        settings: CampaignSettings,
        journal: Optional[CampaignJournal],
    ):
        self.campaign = campaign
        self.settings = settings
        self.journal = journal
        self.cache = ResultCache(settings.cache_dir) if settings.cache_dir else None
        if settings.checkpoint_dir is not None:
            os.makedirs(settings.checkpoint_dir, exist_ok=True)
        self.workdir = ""
        #: (ready_time, index) — ready_time moves forward on backoff.
        self.ready: List[Tuple[float, int]] = []
        #: (job, process, kill_at) — kill_at is the watchdog (or grace) edge.
        self.running: List[Tuple[Job, Any, Optional[float]]] = []
        self.local = {"cache_stores": 0, "cache_verified": 0, "max_queue_depth": 0}

    def commit(self, record: Dict[str, Any]) -> None:
        """Journal one record, then — and only then — let it take effect."""
        if self.journal is not None:
            fields = dict(record)
            self.journal.append(fields.pop("type"), **fields)
        apply(self.campaign, record)

    def feed(self, job: Job, event: Any) -> None:
        """One turn of the machine: decide, commit, act."""
        records, actions = decide(job, event, self.settings)
        for record in records:
            self.commit(record)
        for kind, *args in actions:
            if kind == "spawn":
                self.spawn(job)
            elif kind == "requeue":
                ready_at = time.monotonic() + args[0]  # det: ok — backoff
                heappush(self.ready, (ready_at, job.index))
            elif kind == "drop_checkpoint" and self.settings.checkpoint_dir:
                # The run completed; its checkpoint is stale state now.
                with suppress(OSError):
                    os.unlink(self.settings.checkpoint_path(job.index))

    def result_path(self, job: Job) -> str:
        return os.path.join(self.workdir, f"result_{job.index:04d}.json")

    def spawn(self, job: Job) -> None:
        import multiprocessing  # here, not at import: most runs never spawn

        result_path = self.result_path(job)
        if os.path.exists(result_path):
            os.unlink(result_path)
        proc = multiprocessing.Process(
            target=_worker,
            args=(
                job.name,
                job.config,
                self.settings.checkpoint_path(job.index),
                self.settings.checkpoint_interval,
                result_path,
            ),
            daemon=True,
        )
        proc.start()
        timeout = self.settings.timeout
        watchdog = None if timeout is None else time.monotonic() + timeout  # det: ok
        self.running.append((job, proc, watchdog))

    def reap(self, job: Job, proc: Any) -> Any:
        """Collect an exited worker — or kill an overdue one — and name
        what happened.  A complete result file wins even over a kill: the
        worker finished inside the kill window and its result is good."""
        killed = proc.is_alive()
        if killed:
            proc.kill()
        proc.join()
        result_path = self.result_path(job)
        if os.path.exists(result_path):
            with open(result_path) as fh:
                row = json.load(fh)
            return Finished(row, self.cache_result(job, row))
        if not killed:
            return Died(proc.exitcode)
        if self.campaign.counters["deadline_expired"]:
            return Expired()
        return TimedOut(self.last_checkpoint_cycle(job))

    def cache_result(self, job: Job, row: Dict[str, Any]) -> Optional[bool]:
        """Store a successful row in the cache (or, under ``cache_verify``,
        byte-compare it with the stored entry and return the verdict)."""
        if self.cache is None or row["error"] is not None:
            return None
        fresh = canonical_envelope(job.config, row)
        stored = self.cache.get_bytes(job.key)
        if self.settings.cache_verify and stored is not None:
            if stored == fresh:
                self.local["cache_verified"] += 1
                return True
            self.cache.put(job.key, fresh)
            return False
        if stored != fresh:
            self.cache.put(job.key, fresh)
            self.local["cache_stores"] += 1
        return None

    def last_checkpoint_cycle(self, job: Job) -> Optional[int]:
        """How far a timed-out variant's checkpoints got, so the campaign
        table shows its last durable cycle (best-effort provenance)."""
        from repro.checkpoint import CheckpointError, read_checkpoint_header

        ckpt_path = self.settings.checkpoint_path(job.index)
        if ckpt_path is None:
            return None
        try:
            return read_checkpoint_header(ckpt_path)["cycle"]
        except (CheckpointError, OSError, KeyError):
            return None

    def run(self) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as self.workdir:
            return self.supervise()

    def supervise(self) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        from multiprocessing.connection import wait as sentinel_wait

        settings, campaign = self.settings, self.campaign
        counters = campaign.counters
        consult_cache = self.cache is not None and not settings.cache_verify
        start = time.monotonic()  # det: ok — supervisor wall clock
        deadline_at = None if settings.deadline is None else start + settings.deadline
        for job in campaign.in_state(JobState.QUEUED):
            heappush(self.ready, (0.0, job.index))
        while self.ready or self.running:
            now = time.monotonic()  # det: ok — supervisor wall clock
            past_deadline = deadline_at is not None and now >= deadline_at
            if past_deadline and not counters["deadline_expired"]:
                self.commit(
                    {
                        "type": "deadline",
                        "in_flight": [job.index for job, _, _ in self.running],
                        "queued": [index for _, index in self.ready],
                    }
                )
                # Graceful degradation: in-flight workers get a grace
                # period to finish on their own, then SIGKILL.
                grace_end = now + max(settings.deadline_grace, 0.0)
                self.running = [
                    (job, proc, grace_end) for job, proc, _ in self.running
                ]
            if counters["deadline_expired"]:
                # Nothing launches any more; everything still queued comes
                # back as a partial row with error="campaign_deadline".
                while self.ready:
                    self.feed(campaign.jobs[heappop(self.ready)[1]], Expired())
            # Launch every ready job a process slot can take.
            while (
                self.ready
                and len(self.running) < settings.processes
                and self.ready[0][0] <= now
            ):
                job = campaign.jobs[heappop(self.ready)[1]]
                cached = None
                if consult_cache and job.attempts == 0:  # before attempt 1 only
                    cached = self.cache.get(job.key)
                self.feed(job, Launch() if cached is None else CacheHit(cached))
            depth = len(self.ready) + len(self.running)
            self.local["max_queue_depth"] = max(self.local["max_queue_depth"], depth)
            # Sleep until the nearest edge: a worker exiting (its sentinel
            # wakes us immediately), a watchdog or grace expiry, a
            # backoff-delayed job coming ready, or the campaign deadline.
            now = time.monotonic()  # det: ok — supervisor wall clock
            edges = [0.5]
            if deadline_at is not None and not counters["deadline_expired"]:
                edges.append(deadline_at - now)
            for _, _, kill_at in self.running:
                if kill_at is not None:
                    edges.append(kill_at - now)
            if self.ready and len(self.running) < settings.processes:
                edges.append(self.ready[0][0] - now)
            pause = max(0.0, min(edges))
            if self.running:
                sentinel_wait(
                    [proc.sentinel for _, proc, _ in self.running], timeout=pause
                )
            elif self.ready and pause > 0.0:
                # Nothing running and every queued job is backing off:
                # sleep until the earliest comes ready.
                time.sleep(pause)
            # Reap exits and enforce the watchdog / grace edges.
            now = time.monotonic()  # det: ok — supervisor wall clock
            running, self.running = self.running, []
            for job, proc, kill_at in running:
                overdue = kill_at is not None and now >= kill_at
                if proc.is_alive() and not overdue:
                    self.running.append((job, proc, kill_at))
                else:
                    self.feed(job, self.reap(job, proc))

        stats: Dict[str, Any] = {"variants": len(campaign.jobs)}
        stats.update(counters)
        stats.update(self.local)
        stats["backoff_total_s"] = round(stats["backoff_total_s"], 6)
        stats["wall_s"] = round(time.monotonic() - start, 6)  # det: ok
        self.commit({"type": "summary", "stats": stats})
        if self.journal is not None:
            self.journal.close()
        return campaign.rows, stats


def run_service_campaign(
    items: Sequence[Tuple[str, Dict[str, Any]]],
    settings: CampaignSettings,
    journal_path: Optional[str] = None,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Run ``(name, config_dict)`` variants under supervision; returns the
    raw rows (dict form, variant order) and the service counters.

    This is the engine behind :func:`repro.campaign.run_campaign` (which
    adds linting and typed rows) and ``repro campaign``.  Configs travel
    as serialized dicts for picklability.  The journal header records the
    settings, so a resume continues under them.  See docs/CAMPAIGNS.md
    for the state machine and failure semantics.
    """
    campaign = Campaign(
        (name, config, cache_key(config)) for name, config in items
    )
    journal = None
    if journal_path is not None:
        # The header carries the expected variant count so a resume can
        # detect a journal whose enqueue phase was cut short (a supervisor
        # crash mid-enqueue commits only a prefix of the queued records).
        journal = CampaignJournal.create(
            journal_path, dict(settings.to_dict(), variants=len(campaign.jobs))
        )
    supervisor = _Supervisor(campaign, settings, journal)
    for job in campaign.jobs:
        supervisor.feed(job, Enqueue())
    return supervisor.run()


def resume_campaign(
    journal_path: str, *, no_cache: bool = False, **overrides: Any
) -> Tuple[List[Any], Dict[str, Any]]:
    """Resume a journaled campaign after a supervisor crash.

    Replays the journal (completed variants keep their recorded rows and
    are never re-run; pending ones keep their attempt history) and
    continues under the settings its header recorded — any
    :class:`~repro.service.policy.CampaignSettings` field given here
    overrides the recorded value, and ``no_cache=True`` disables the
    result cache even when the header recorded a ``cache_dir``.  The
    merged settings are validated (:class:`ValueError`) before the journal
    is touched.  Returns ``(rows, stats)`` with rows as typed
    :class:`~repro.campaign.CampaignRow` in the original queue order.

    Raises :class:`JournalError` when the journal holds fewer ``queued``
    records than the header's expected variant count: the supervisor
    crashed mid-enqueue, the missing variants' configs were never
    journaled, and resuming would silently drop them — restart such a
    campaign from its spec instead.
    """
    from repro.campaign import rows_from_raw

    state = read_journal(journal_path)
    meta = dict(state.meta)
    if no_cache:
        meta.pop("cache_dir", None)
        overrides.pop("cache_dir", None)
    settings = CampaignSettings.from_dict(meta, **overrides)
    try:
        campaign = replay(state.records)
    except (IllegalTransition, KeyError, TypeError) as exc:
        raise JournalError(f"{journal_path}: unusable record ({exc!r})") from exc
    expected = meta.get("variants")
    if isinstance(expected, int) and len(campaign.jobs) < expected:
        raise JournalError(
            f"{journal_path}: journal holds {len(campaign.jobs)} of "
            f"{expected} queued variants — the supervisor crashed before "
            "the work list was fully journaled, so the missing variants "
            "cannot be resumed; restart the campaign from its spec"
        )
    supervisor = _Supervisor(
        campaign, settings, CampaignJournal.append_to(journal_path)
    )
    finished = len(campaign.in_state(JobState.FINISHED))
    supervisor.commit(
        {
            "type": "resumed",
            "finished": finished,
            "pending": len(campaign.jobs) - finished,
        }
    )
    rows, stats = supervisor.run()
    return rows_from_raw(rows), stats
