"""Linter entry points and the ``repro lint`` CLI.

The acceptance contract: linting an Eq. 1 violation or a fully-adaptive
config without deadlock recovery exits non-zero and prints the rule id
(with the witness cycle for the CDG rule).
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.cli import main

FIXTURES = Path(__file__).parent.parent / "fixtures" / "lint"
EXAMPLES = Path(__file__).parent.parent.parent / "examples" / "configs"


class TestLintPaths:
    def test_example_configs_are_clean(self):
        report = lint_paths([EXAMPLES])
        assert len(report) == 0
        assert report.exit_code == 0

    def test_fixture_directory_aggregates_per_file(self):
        report = lint_paths([FIXTURES])
        assert report.has_errors
        sources = {d.source for d in report}
        assert str(FIXTURES / "eq1_violation.json") in sources
        assert str(FIXTURES / "adaptive_no_recovery.json") in sources

    def test_eq1_violation_file(self):
        report = lint_paths([FIXTURES / "eq1_violation.json"])
        assert [d.rule_id for d in report.errors] == ["NOC001"]

    def test_adaptive_no_recovery_file(self):
        report = lint_paths([FIXTURES / "adaptive_no_recovery.json"])
        (diag,) = report.errors
        assert diag.rule_id == "NOC004"
        assert diag.witness

    def test_torus_xy_file_flags_both_rules(self):
        report = lint_paths([FIXTURES / "torus_xy_no_recovery.json"])
        assert {d.rule_id for d in report.errors} == {"NOC004", "NOC008"}

    def test_broken_json_is_noc000_not_a_traceback(self):
        report = lint_paths([FIXTURES / "broken.json"])
        (diag,) = report.errors
        assert diag.rule_id == "NOC000"
        assert "JSON" in diag.message

    def test_warnings_do_not_fail_the_exit_code(self):
        report = lint_paths([FIXTURES / "warnings_only.json"])
        assert report.warnings and not report.has_errors
        assert report.exit_code == 0

    def test_missing_file_is_noc000(self):
        report = lint_paths([FIXTURES / "does_not_exist.json"])
        (diag,) = report.errors
        assert diag.rule_id == "NOC000"

    def test_empty_directory_warns(self, tmp_path):
        report = lint_paths([tmp_path])
        assert [d.rule_id for d in report] == ["NOC000"]
        assert report.exit_code == 0


class TestLintCLI:
    def test_default_flags_are_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_eq1_violation_exits_nonzero_with_rule_id(self, capsys):
        rc = main(
            ["lint", "--deadlock-recovery", "--buffer-depth", "2",
             "--flits", "8"]
        )
        assert rc == 1
        assert "NOC001" in capsys.readouterr().out

    def test_adaptive_without_recovery_prints_witness(self, capsys):
        rc = main(["lint", "--routing", "fully_adaptive"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "NOC004" in out
        assert "via" in out  # the witness channels are printed

    def test_file_argument(self, capsys):
        rc = main(["lint", str(FIXTURES / "eq1_violation.json")])
        assert rc == 1
        assert "NOC001" in capsys.readouterr().out

    def test_directory_argument(self, capsys):
        assert main(["lint", str(EXAMPLES)]) == 0

    def test_json_output_is_parseable(self, capsys):
        rc = main(["lint", "--json", "--routing", "fully_adaptive"])
        assert rc == 1
        env = json.loads(capsys.readouterr().out)
        assert env["schema"] == "repro/v1"
        assert env["command"] == "lint"
        diagnostics = env["result"]
        assert diagnostics[0]["rule_id"] == "NOC004"
        assert diagnostics[0]["witness"]

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "NOC001" in out and "NOC012" in out

    def test_no_cdg_skips_the_graph_pass(self, capsys):
        rc = main(["lint", "--no-cdg", "--routing", "fully_adaptive"])
        assert rc == 0

    def test_strict_promotes_warnings(self, capsys):
        path = str(FIXTURES / "warnings_only.json")
        assert main(["lint", path]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", path]) == 1


class TestCDGVerdictCache:
    def test_key_covers_everything_the_verdict_depends_on(self):
        from repro.analysis import cdg_verdict_for
        from repro.config import FaultConfig, NoCConfig, SimulationConfig
        from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
        from repro.types import Direction

        def config(vcs, *faults):
            return SimulationConfig(
                noc=NoCConfig(shape=(4, 4), num_vcs=vcs),
                faults=FaultConfig(permanent=PermanentFaultSchedule.of(*faults)),
            )

        two, four = cdg_verdict_for(config(2)), cdg_verdict_for(config(4))
        assert two is not four
        assert (two.num_vcs, four.num_vcs) == (2, 4)
        assert cdg_verdict_for(config(2)) is two  # still memoized
        # One VC-fault schedule, two VC counts: the whole link at 1 VC, a
        # single buffer at 2 — different degraded topologies.
        dead_vc = PermanentFault("vc", 5, Direction.EAST, vc=0)
        whole_link = cdg_verdict_for(config(1, dead_vc))
        one_buffer = cdg_verdict_for(config(2, dead_vc))
        assert whole_link.num_channels == one_buffer.num_channels - 1


class TestRunCLIInvariantChecks:
    def test_run_with_invariant_checks(self, capsys):
        rc = main(
            [
                "run",
                "--shape", "3x3",
                "--messages", "80", "--warmup", "10",
                "--invariant-checks",
            ]
        )
        assert rc == 0
        assert "packets delivered" in capsys.readouterr().out


class TestCampaignLint:
    def test_campaign_aborts_on_lint_error(self):
        from repro.campaign import CampaignLintError, grid, run_campaign

        variants = grid(axes={"noc.routing": ["xy", "fully_adaptive"]})
        with pytest.raises(CampaignLintError) as excinfo:
            run_campaign(variants)
        assert excinfo.value.diagnostics[0].rule_id == "NOC004"
        assert "routing=fully_adaptive" in str(excinfo.value)

    def test_no_lint_escape_hatch_and_metadata(self):
        import warnings

        from repro.campaign import grid, run_campaign
        from repro.config import SimulationConfig, WorkloadConfig

        base = SimulationConfig(
            workload=WorkloadConfig(
                num_messages=60, warmup_messages=10, max_cycles=20_000
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            variants = grid(
                base=base, axes={"noc.deadlock_recovery_enabled": [False, True]}
            )
        rows = run_campaign(variants)
        assert rows[0].diagnostics == ()
        assert [d["rule_id"] for d in rows[1].diagnostics] == ["NOC005"]
        unlinted = run_campaign(variants, lint=False)
        assert all(row.diagnostics == () for row in unlinted)
