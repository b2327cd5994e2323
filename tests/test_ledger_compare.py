"""The verdicts of ``tools/ledger_compare.py`` on fixed run lists.

The tool's gate is a pure function of the two sides' runs and the metric's
``better``/``bound`` from ``BENCHMARK.json``; nothing here starts a process
or touches git.
"""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "ledger_compare", REPO_ROOT / "tools" / "ledger_compare.py"
)
ledger_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger_compare)
verdict = ledger_compare.verdict

TIGHT = [4.00, 4.02, 3.98, 4.01, 3.99, 4.00]
#: Quartiles 4.0 and 6.0 around a median of 5.0: a 40 % spread.
NOISY = [3.0, 4.0, 4.0, 6.0, 6.0, 7.0]


def test_identical_sides_are_ok():
    assert verdict(TIGHT, TIGHT, "lower", 0.25) == "ok"
    assert verdict(NOISY, NOISY, "higher", 0.25) == "ok"


def test_twice_the_bound_worse_on_a_tight_parent_is_a_regression():
    assert verdict(TIGHT, [run * 1.5 for run in TIGHT], "lower", 0.25) == "REGRESSED"


def test_just_inside_the_bound_is_ok():
    assert verdict(TIGHT, [run * 1.2 for run in TIGHT], "lower", 0.25) == "ok"


def test_worse_than_the_bound_inside_the_parents_own_noise_is_unresolved():
    change = [run * 1.3 for run in NOISY]  # 3.9 … 9.1 against 3.0 … 7.0
    assert ledger_compare.spread(NOISY) == pytest.approx(0.4)
    assert verdict(NOISY, change, "lower", 0.25) == "unresolved"


def test_a_noisy_parent_does_not_excuse_runs_that_never_overlap():
    change = [run + 5.0 for run in NOISY]  # every run worse than every parent run
    assert verdict(NOISY, change, "lower", 0.25) == "REGRESSED"


def test_a_wide_spread_with_every_change_run_better_is_ok():
    assert verdict(NOISY, [run - 2.5 for run in NOISY[:3]], "lower", 0.25) == "ok"
    assert verdict(NOISY, [run + 5.0 for run in NOISY], "higher", 0.25) == "ok"


def test_higher_is_better_metrics_regress_downwards():
    assert verdict(TIGHT, [run * 1.5 for run in TIGHT], "higher", 0.25) == "ok"
    assert verdict(TIGHT, [run * 0.5 for run in TIGHT], "higher", 0.25) == "REGRESSED"
    assert verdict(NOISY, [run * 0.7 for run in NOISY], "higher", 0.25) == "unresolved"
    assert ledger_compare.worsening(4.0, 3.0, "higher") == pytest.approx(0.25)
    assert ledger_compare.worsening(4.0, 3.0, "lower") == pytest.approx(-0.25)


def _tree(root: pathlib.Path, run_seconds: int) -> pathlib.Path:
    (root / "bench" / "__pycache__").mkdir(parents=True)
    (root / "bench" / ".work").mkdir()
    (root / "bench" / "harness.py").write_text("print('same on both sides')\n")
    (root / "bench" / ".work" / "trace.json").write_text(f"{run_seconds}")
    (root / "bench" / "__pycache__" / "harness.pyc").write_text(f"{run_seconds}")
    (root / "BENCHMARK.json").write_text(
        json.dumps({"paths": ["bench"], "run_seconds": run_seconds})
    )
    return root


def test_a_differing_benchmark_is_nothing_to_compare(tmp_path, capsys):
    parent = _tree(tmp_path / "parent", run_seconds=20)
    change = _tree(tmp_path / "change", run_seconds=30)
    assert ledger_compare.compare(parent, change, pairs=1, seconds=0) == 2
    assert "nothing to compare" in capsys.readouterr().out
    (change / "BENCHMARK.json").write_bytes((parent / "BENCHMARK.json").read_bytes())
    # Scratch the harness leaves behind is not the benchmark ...
    assert ledger_compare.benchmark_files(parent) == ledger_compare.benchmark_files(
        change
    )
    # ... a file under its ``paths`` is.
    (change / "bench" / "harness.py").write_text("print('edited')\n")
    assert ledger_compare.compare(parent, change, pairs=1, seconds=0) == 2

