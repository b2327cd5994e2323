"""Self-test of the ledger: ``python -m pytest benchmarks/ledger -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``): it starts eight
child interpreters and takes about ten seconds.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(PACKAGE_DIR), "--smoke"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    elapsed = time.perf_counter() - start
    return done.returncode, json.loads(done.stdout.strip().split("\n")[-1]), elapsed


def test_names_are_plain():
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_command_names_only_the_benchmark_directory():
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"] == ["python3", "benchmarks/ledger"]


def test_smoke_completes_without_failures(smoke):
    returncode, results, elapsed = smoke
    assert returncode == 0
    assert sorted(results) == sorted(WORKLOADS)
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 1, name
    assert elapsed < 20, f"--smoke took {elapsed:.1f} s"


def test_catalogue_equals_emitted_metrics(smoke):
    _returncode, results, _elapsed = smoke
    for name, result in results.items():
        assert sorted(result["metrics"]) == sorted(END_TO_END + PER_LAYER), name


def test_bypass_proofs(smoke):
    _returncode, results, _elapsed = smoke
    batched = results["faultfree_rate_sweep_batched"]["metrics"]
    assert batched["noc.router.calls"] == 0
    assert batched["noc.kernel.step_calls"] > 0
    assert batched["noc.kernel.fallback_runs"] == 0
    figure = results["fig5_fault_sweep"]["metrics"]
    assert figure["noc.kernel.step_calls"] == 0
    assert figure["noc.router.calls"] > 0


def test_every_end_to_end_metric_is_nonzero(smoke):
    _returncode, results, _elapsed = smoke
    for name, result in results.items():
        for metric in END_TO_END:
            assert result["metrics"][metric] > 0, (name, metric)


def test_wrappers_are_removed_exactly():
    from repro import api
    from repro.noc.network import Network
    from repro.noc.simulator import Simulator

    from benchmarks.ledger.tracer import Tracer

    originals = (Network.step, Simulator.run, api.save_checkpoint, api.cache_key)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (Network.step, Simulator.run, api.save_checkpoint, api.cache_key)
        assert all(a is not b for a, b in zip(originals, wrapped))
    finally:
        tracer.remove()
    restored = (Network.step, Simulator.run, api.save_checkpoint, api.cache_key)
    assert all(a is b for a, b in zip(originals, restored))
    assert tracer.verify_removed() == []


def test_regen_golden_refuses_a_dirty_src(tmp_path):
    copy = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copytree(ROOT / "src" / "repro", copy / "src" / "repro", ignore=ignore)
    shutil.copytree(PACKAGE_DIR, copy / "benchmarks" / "ledger", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    git = ["git", "-c", "user.name=ledger", "-c", "user.email=ledger@example.org"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + command, cwd=copy, check=True)
    with open(copy / "src" / "repro" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write("# an uncommitted edit\n")
    golden = copy / "benchmarks" / "ledger" / "golden.json"
    before = golden.read_bytes()
    done = subprocess.run(
        [sys.executable, str(copy / "benchmarks" / "ledger"), "--regen-golden"],
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    assert "refusing" in done.stderr
    assert golden.read_bytes() == before
