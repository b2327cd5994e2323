#!/usr/bin/env python
"""Chaos drill: the campaign service must survive everything at once.

Runs a pinned six-variant campaign three times and injects supervisor-level
faults into the middle one (the unit suite proves each mechanism alone;
this proves they compose across real process boundaries):

1. **golden** — undisturbed run to completion; its per-variant canonical
   result envelopes (:func:`repro.service.cache.canonical_envelope`) are
   the reference bytes.
2. **chaos** — the same campaign with the works thrown at it:

   * one worker process is SIGSTOPped mid-run until the per-attempt
     watchdog SIGKILLs it (``error="timeout"``), and its variant's
     checkpoint is then truncated during the retry backoff window, so the
     retry must *discard* the corrupt checkpoint and restart from cycle 0;
   * another worker is SIGKILLed outright (``worker died without a
     result``), exercising checkpoint-resume on its retry;
   * the supervisor itself is SIGKILLed mid-journal — after at least one
     variant committed ``done`` but before the campaign finished — and the
     campaign is completed with ``repro campaign --resume``.

   The final row set must be complete (every variant exactly once, none
   failed), variants finished before the supervisor kill must not be
   re-leased after resume, the corrupt checkpoint must surface as
   ``metadata["checkpoint_discarded"]`` — and every variant's canonical
   envelope must be **bit-for-bit equal** to the golden run's.
3. **cache** — a fresh campaign pointed at the chaos run's result cache:
   every variant must be served from cache (``metadata["cache_hit"]``,
   zero attempts) with, again, byte-identical envelopes.

Exit status 0 on success, 1 on any divergence or sequencing failure.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.cache import canonical_envelope  # noqa: E402
from repro.service.journal import JournalError, read_journal  # noqa: E402
from repro.service.machine import JobState, replay  # noqa: E402

#: ~2-3s of simulation per variant locally (several x that on CI runners):
#: long enough that every injection lands mid-run, short enough for CI.
BASE = {
    "noc": {"shape": [6, 6]},
    "workload": {
        "num_messages": 2500,
        "warmup_messages": 200,
        "max_cycles": 200_000,
    },
}
#: v5 duplicates v0's config under a different name — the in-campaign
#: dedup case for the content-addressed cache.
RATES = [0.05, 0.07, 0.09, 0.11, 0.13, 0.05]

#: Generous per-attempt watchdog: far above an honest variant's runtime on
#: a slow runner, and the bound the SIGSTOPped worker must be killed at.
TIMEOUT = 20.0
#: First-retry backoff — the window in which the drill truncates the
#: stalled variant's checkpoint before its retry leases.
BACKOFF_BASE = 1.5

CLI = [sys.executable, "-m", "repro", "campaign"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _fail(message: str) -> "NoReturn":  # noqa: F821 - py3.9 compat
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _spec(path: pathlib.Path) -> None:
    variants = [
        {
            "name": f"v{i}-rate{rate}",
            "config": {
                **BASE,
                "workload": {**BASE["workload"], "injection_rate": rate},
            },
        }
        for i, rate in enumerate(RATES)
    ]
    path.write_text(json.dumps({"variants": variants}))


def _worker_pids(supervisor_pid: int) -> "list[int]":
    """Live worker children of the supervisor (resource tracker excluded)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != supervisor_pid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except (OSError, ValueError, IndexError):
            continue
        if "resource_tracker" in cmdline:
            continue
        pids.append(int(entry))
    return pids


def _journal_records(journal: pathlib.Path) -> "list[dict]":
    if not journal.exists():
        return []
    try:
        return read_journal(journal).records
    except JournalError:
        return []


def _wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
    _fail(f"timed out after {timeout:.0f}s waiting for {what}")


def _run_cli(argv: "list[str]", what: str) -> dict:
    proc = subprocess.run(
        CLI + argv, env=_env(), capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        _fail(f"{what} exited {proc.returncode}:\n{proc.stderr}\n{proc.stdout}")
    return json.loads(proc.stdout)


def _envelopes(rows: "list[dict]") -> "dict[str, bytes]":
    """name -> canonical result envelope for a ``--json`` row list."""
    out = {}
    for row in rows:
        if row["error"] is not None:
            _fail(f"variant {row['name']} failed: {row['error']}")
        if row["name"] in out:
            _fail(f"variant {row['name']} appears twice in the row set")
        out[row["name"]] = canonical_envelope(row["config"], row)
    return out


def _assert_equal(
    got: "dict[str, bytes]", golden: "dict[str, bytes]", what: str
) -> None:
    if set(got) != set(golden):
        _fail(
            f"{what}: row set mismatch — got {sorted(got)}, "
            f"expected {sorted(golden)}"
        )
    for name, envelope in golden.items():
        if got[name] != envelope:
            _fail(
                f"{what}: variant {name} envelope differs from golden:\n"
                f"  golden: {envelope!r}\n  got:    {got[name]!r}"
            )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        root = pathlib.Path(tmp)
        spec = root / "spec.json"
        _spec(spec)
        stopped: "list[int]" = []

        # ---- phase 1: golden -------------------------------------------
        print("golden: undisturbed campaign ...", file=sys.stderr)
        data = _run_cli(
            [str(spec), "--dir", str(root / "golden"), "--processes", "2",
             "--timeout", str(TIMEOUT), "--json"],
            "golden campaign",
        )
        golden = _envelopes(data["result"]["rows"])
        print(f"golden: {len(golden)} variants ok", file=sys.stderr)

        # ---- phase 2: chaos --------------------------------------------
        chaos_dir = root / "chaos"
        journal = chaos_dir / "journal.jsonl"
        checkpoints = chaos_dir / "checkpoints"
        print("chaos: starting victim supervisor ...", file=sys.stderr)
        supervisor = subprocess.Popen(
            CLI + [str(spec), "--dir", str(chaos_dir), "--processes", "2",
                   "--retries", "8", "--timeout", str(TIMEOUT),
                   "--backoff-base", str(BACKOFF_BASE),
                   "--backoff-seed", "7", "--json"],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until both workers are mid-run with checkpoints on disk,
            # so the stall victim has durable state to corrupt.
            _wait_for(
                lambda: len(_worker_pids(supervisor.pid)) >= 2
                and len(list(checkpoints.glob("*.ckpt"))) >= 2,
                60,
                "two workers with checkpoints",
            )
            workers = sorted(_worker_pids(supervisor.pid))

            # Injection 1: stall one worker past the per-attempt watchdog.
            os.kill(workers[0], signal.SIGSTOP)
            stopped.append(workers[0])
            print(f"chaos: SIGSTOP worker {workers[0]} (watchdog must kill "
                  f"it at {TIMEOUT:.0f}s)", file=sys.stderr)

            # Injection 2: SIGKILL the other worker outright.
            os.kill(workers[1], signal.SIGKILL)
            print(f"chaos: SIGKILL worker {workers[1]}", file=sys.stderr)
            _wait_for(
                lambda: any(
                    r["type"] == "attempt"
                    and r["error"].startswith("worker died")
                    for r in _journal_records(journal)
                ),
                30,
                "the killed worker's attempt record",
            )

            # The watchdog reaps the stalled worker; truncate that
            # variant's checkpoint inside its retry backoff window.
            timeout_record = _wait_for(
                lambda: next(
                    (r for r in _journal_records(journal)
                     if r["type"] == "attempt" and r["error"] == "timeout"),
                    None,
                ),
                TIMEOUT + 40,
                "the stalled worker's timeout record",
            )
            stalled = timeout_record["variant"]
            ckpt = checkpoints / f"variant_{stalled:04d}.ckpt"
            if not ckpt.exists():
                _fail(f"no checkpoint to corrupt for stalled variant {stalled}")
            with open(ckpt, "r+b") as fh:
                fh.truncate(40)  # mid-header: unreadable, not just stale
            print(f"chaos: truncated {ckpt.name} of stalled variant "
                  f"{stalled}", file=sys.stderr)

            # Injection 3: SIGKILL the supervisor mid-journal — after at
            # least one variant committed done, before the campaign ends.
            _wait_for(
                lambda: any(
                    r["type"] == "done" for r in _journal_records(journal)
                ),
                60,
                "a done record before the supervisor kill",
            )
            if supervisor.poll() is not None:
                _fail("supervisor finished before it could be killed — "
                      "the drill's workload is too short")
            os.kill(supervisor.pid, signal.SIGKILL)
            supervisor.wait(timeout=30)
            finished = replay(read_journal(journal).records).in_state(
                JobState.FINISHED
            )
            done_before = {job.index for job in finished}
            if not done_before or len(done_before) >= len(RATES):
                _fail(
                    f"supervisor killed at the wrong moment: "
                    f"{len(done_before)}/{len(RATES)} variants terminal"
                )
            print(f"chaos: SIGKILLed supervisor with {len(done_before)} "
                  f"done, {len(RATES) - len(done_before)} unfinished",
                  file=sys.stderr)
        finally:
            if supervisor.poll() is None:  # pragma: no cover - safety net
                supervisor.kill()
                supervisor.wait()

        # ---- resume from the journal -----------------------------------
        print("chaos: resuming from the journal ...", file=sys.stderr)
        data = _run_cli(
            ["--resume", str(chaos_dir), "--json"], "campaign resume"
        )
        rows = data["result"]["rows"]
        _assert_equal(_envelopes(rows), golden, "chaos+resume")

        records = _journal_records(journal)
        resumed_at = next(
            i for i, r in enumerate(records) if r["type"] == "resumed"
        )
        releases = {
            r["variant"]
            for r in records[resumed_at:]
            if r["type"] == "leased"
        }
        if releases & done_before:
            _fail(
                f"variants {sorted(releases & done_before)} were done "
                "before the supervisor kill but re-leased after resume"
            )
        if not any(r["type"] == "checkpoint_discarded" for r in records):
            _fail("no checkpoint_discarded record: the truncated checkpoint "
                  "was never noticed")
        by_name = {row["name"]: row for row in rows}
        discarded = [
            row for row in rows
            if row["metadata"].get("checkpoint_discarded")
        ]
        if not discarded:
            _fail("no row carries metadata['checkpoint_discarded']")
        retried = [
            row for row in rows
            if row["metadata"]["attempts"] > 1
            and row["metadata"].get("attempt_errors")
        ]
        if not retried:
            _fail("no row records a retried attempt with attempt_errors")
        print(
            f"chaos: complete — {len(done_before)} rows carried over, "
            f"{len(retried)} variant(s) retried with full attempt history, "
            f"checkpoint discard recorded on "
            f"{discarded[0]['name']}", file=sys.stderr,
        )

        # ---- phase 3: cache reuse --------------------------------------
        print("cache: fresh campaign against the chaos cache ...",
              file=sys.stderr)
        data = _run_cli(
            [str(spec), "--dir", str(root / "rerun"),
             "--cache-dir", str(chaos_dir / "cache"), "--json"],
            "cached campaign",
        )
        cached_rows = data["result"]["rows"]
        _assert_equal(_envelopes(cached_rows), golden, "cache rerun")
        misses = [
            row["name"]
            for row in cached_rows
            if not row["metadata"].get("cache_hit")
            or row["metadata"]["attempts"] != 0
        ]
        if misses:
            _fail(f"variants not served from cache: {misses}")
        stats = data["result"]["stats"]
        if stats["cache_hits"] != len(RATES):
            _fail(f"expected {len(RATES)} cache hits, got "
                  f"{stats['cache_hits']}")

        for pid in stopped:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

        print(
            f"PASS: {len(golden)} variants survived worker SIGKILL, "
            "watchdog stall, checkpoint corruption and a supervisor "
            "SIGKILL+resume with bit-for-bit golden envelopes; full "
            "cache replay verified"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
