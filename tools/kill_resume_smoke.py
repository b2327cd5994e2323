#!/usr/bin/env python
"""Kill-and-resume smoke: SIGKILL a checkpointing run, resume, compare.

The end-to-end crash drill that CI runs on every push (the unit suite
proves resume equivalence in-process; this proves it across a real process
boundary with a real ``kill -9``):

1. run ``repro run --checkpoint ... --json`` to completion — the golden
   envelope;
2. start the *identical* command as a child process, wait for its first
   checkpoint file to land, and SIGKILL it mid-run (no atexit, no flush —
   the only survivor is the atomically-written checkpoint);
3. ``repro run --resume <checkpoint> --json`` and require the resumed
   envelope to be byte-identical to the golden one.

Both runs use the same checkpoint path, so the envelopes (which embed the
config, checkpoint fields included) are comparable byte-for-byte.

Exit status 0 on success, 1 on any divergence or sequencing failure.
"""

from __future__ import annotations

import argparse
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

from repro.checkpoint import CheckpointError, read_checkpoint_header  # noqa: E402

#: A run long enough (tens of seconds of wall clock on CI hardware) that the
#: SIGKILL reliably lands mid-run, with transient link faults so the resume
#: is exercised on a stressed configuration, not a toy one.
RUN_FLAGS = [
    "--shape", "8x8",
    "--rate", "0.3",
    "--messages", "3000",
    "--warmup", "400",
    "--link-error-rate", "0.01",
    "--seed", "7",
]
CHECKPOINT_INTERVAL = 200


def _run_cmd(checkpoint: pathlib.Path) -> list:
    return [
        sys.executable, "-m", "repro", "run",
        *RUN_FLAGS,
        "--checkpoint", str(checkpoint),
        "--checkpoint-interval", str(CHECKPOINT_INTERVAL),
        "--json",
    ]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checkpoint-wait",
        type=float,
        default=120.0,
        help="seconds to wait for the victim's first checkpoint (default 120)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-kill-resume-") as tmp:
        ckpt = pathlib.Path(tmp) / "run.ckpt"
        cmd = _run_cmd(ckpt)
        env = _child_env()

        print("golden: running to completion ...", file=sys.stderr)
        golden = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=False
        )
        if golden.returncode != 0:
            return _fail(
                f"golden run exited {golden.returncode}:\n{golden.stderr}"
            )
        golden_envelope = golden.stdout
        written = json.loads(golden_envelope)["result"]["counters"].get(
            "checkpoints_written", 0
        )
        if written < 2:
            return _fail(
                f"golden run wrote only {written} checkpoint(s); the "
                "workload is too short for a meaningful mid-run kill"
            )
        ckpt.unlink()  # the victim must produce its own

        print("victim: starting, will SIGKILL after first checkpoint ...",
              file=sys.stderr)
        victim = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + args.checkpoint_wait
        try:
            while not ckpt.exists():
                if victim.poll() is not None:
                    return _fail(
                        f"victim exited {victim.returncode} before its "
                        "first checkpoint — nothing to kill"
                    )
                if time.monotonic() > deadline:
                    return _fail(
                        f"no checkpoint after {args.checkpoint_wait:.0f}s"
                    )
                time.sleep(0.05)
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - safety net
                victim.kill()
                victim.wait()
        if victim.returncode != -signal.SIGKILL:
            return _fail(
                f"victim exited {victim.returncode}, expected death by "
                "SIGKILL — it finished before the kill landed"
            )
        try:
            killed_at = read_checkpoint_header(ckpt)["cycle"]
        except CheckpointError as exc:
            return _fail(f"checkpoint unreadable after SIGKILL: {exc}")
        print(f"victim: killed; last durable checkpoint at cycle {killed_at}",
              file=sys.stderr)

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--resume", str(ckpt),
             "--json"],
            env=env, capture_output=True, text=True, check=False,
        )
        if resumed.returncode != 0:
            return _fail(
                f"resume exited {resumed.returncode}:\n{resumed.stderr}"
            )
        if resumed.stdout != golden_envelope:
            for i, (g, r) in enumerate(
                zip(golden_envelope.splitlines(), resumed.stdout.splitlines())
            ):
                if g != r:
                    print(f"first diff at line {i + 1}:", file=sys.stderr)
                    print(f"  golden:  {g}", file=sys.stderr)
                    print(f"  resumed: {r}", file=sys.stderr)
                    break
            return _fail("resumed envelope differs from golden")

        cycles = json.loads(golden_envelope)["result"]["cycles"]
        print(
            f"PASS: killed at cycle {killed_at}, resumed to cycle {cycles}, "
            "envelope byte-identical to the uninterrupted run"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
