#!/usr/bin/env python
"""Which functions of ``src/repro`` does no run reach?

A reviewer's tool for a simplicity round, not a CI gate (it takes minutes).
It puts a ``sitecustomize`` on ``PYTHONPATH`` that installs a
``sys.setprofile`` call recorder in every interpreter started below it
(campaign workers and ledger children included), then runs everything that
is not a unit test — the pinned CLI commands of
``tests/fixtures/cli/parent_d5e530f/commands.json``, every ``examples/*.py``,
``benchmarks/ledger --smoke`` and ``tools/record.py --check`` (the front
door of every paper figure and claim) — and prints each ``def`` under
``src/repro`` that was never entered, grouped by file.

Most of what it prints is meant to stay (``__repr__``s, the oracles, the
paper's DESIGN inventory); read it for *paths* — a class, a fork or a
module that only its own unit tests keep alive.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Written on first entry, unbuffered, so forked and SIGKILLed workers count.
RECORDER = '''
import os, sys
_seen = set()
_log = open(os.path.join({out!r}, str(os.getpid())), "ab", buffering=0)
def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith({src!r}):
            _log.write(b"%s:%d\\n" % (code.co_filename.encode(), code.co_firstlineno))
sys.setprofile(_profile)
'''


def main() -> int:
    pinned = json.loads(
        (ROOT / "tests/fixtures/cli/parent_d5e530f/commands.json").read_text()
    )
    commands = [["-m", "repro", *entry["argv"]] for entry in pinned.values()]
    commands.append(["benchmarks/ledger", "--smoke"])
    commands.append(["tools/record.py", "--check"])
    examples = sorted((ROOT / "examples").glob("*.py"))
    with tempfile.TemporaryDirectory() as tmp:
        hook, out, cwd = (pathlib.Path(tmp, name) for name in ("hook", "out", "cwd"))
        for directory in (hook, out, cwd):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(
            RECORDER.format(out=str(out), src=str(SRC))
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(SRC.parent)]))
        # The commands name paths relative to the root; the examples write
        # their output files where they run.
        runs = [(ROOT, c) for c in commands] + [(cwd, [str(e)]) for e in examples]
        for where, command in runs:
            print("running:", *command, file=sys.stderr, flush=True)
            subprocess.run(
                [sys.executable, *command],
                cwd=where,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        entered = {
            line for path in out.iterdir() for line in path.read_text().splitlines()
        }
    functions = lines = 0
    for path in sorted(SRC.rglob("*.py")):
        missed = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object's first line is its first decorator's.
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                if f"{path}:{first}" not in entered:
                    missed.append((node.lineno, node.name, node.end_lineno - first + 1))
        if missed:
            print(path.relative_to(ROOT))
            for lineno, name, length in sorted(missed):
                print(f"  {lineno:5d}  {name}  ({length} lines)")
            functions += len(missed)
            lines += sum(length for _, _, length in missed)
    print(f"never entered: {functions} functions / {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
