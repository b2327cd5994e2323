"""CLI tests (``python -m repro``)."""

import argparse
import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings

from repro import api
from repro.cli import build_parser, main
from tests.test_config_canonical import platforms


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.shape == "8x8" and args.scheme == "hbh"

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "5"])
        assert args.number == "5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommand:
    def test_basic_run(self, capsys):
        rc = main(
            [
                "run",
                "--shape", "3x3",
                "--messages", "120", "--warmup", "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "packets delivered" in out
        assert "avg latency" in out

    def test_run_with_faults_prints_counters(self, capsys):
        rc = main(
            [
                "run",
                "--shape", "3x3",
                "--messages", "150", "--warmup", "20",
                "--link-error-rate", "0.05",
                "--multi-bit-fraction", "1.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "retransmission_rounds" in out

    def test_run_schemes(self, capsys):
        for scheme in ("e2e", "fec", "none"):
            rc = main(
                [
                    "run",
                    "--shape", "3x3",
                    "--messages", "80", "--warmup", "10",
                    "--scheme", scheme,
                ]
            )
            assert rc == 0

    def test_run_adaptive_with_recovery(self, capsys):
        rc = main(
            [
                "run",
                "--shape", "3x3",
                "--messages", "80", "--warmup", "10",
                "--routing", "fully_adaptive",
                "--deadlock-recovery",
            ]
        )
        assert rc == 0


class TestFigureCommand:
    def test_figure5_tiny_scale(self, capsys):
        rc = main(["figure", "5", "--messages", "60", "--no-chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "HBH" in out and "E2E" in out and "FEC" in out

    def test_figure_chart_rendering(self, capsys):
        rc = main(["figure", "5", "--messages", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(log x)" in out  # the ASCII chart was rendered


class TestTable1Command:
    def test_prints_paper_numbers(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "119.55" in out and "0.374862" in out


class TestSweepCommand:
    def test_two_point_sweep(self, capsys):
        rc = main(
            ["sweep", "--messages", "100", "--rates", "0.05", "0.2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Latency vs injection rate" in out


class TestPermanentFaultFlags:
    def test_run_with_dead_link_reroutes(self, capsys):
        rc = main(
            [
                "run",
                "--shape", "4x4",
                "--messages", "150", "--warmup", "20",
                "--dead-link", "5:east",
                "--dead-vc", "6:south:1@100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "permanent_faults_applied" in out

    def test_bad_dead_link_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dead-link", "5:sideways"])
        assert excinfo.value.code == 2
        assert "fault spec" in capsys.readouterr().err

    def test_bad_dead_router_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dead-router", "ten"])
        assert excinfo.value.code == 2


class TestDegradeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["degrade"])
        assert args.shape == "8x8" and args.kills == 8

    def test_tiny_campaign(self, capsys):
        rc = main(
            [
                "degrade",
                "--shape", "4x4",
                "--kills", "2",
                "--inject-cycles", "200",
                "--no-chart",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dead links" in out
        assert "reconv" in out

    def test_json_output(self, capsys):
        import json

        rc = main(
            [
                "degrade",
                "--shape", "4x4",
                "--kills", "1",
                "--inject-cycles", "200",
                "--json",
            ]
        )
        assert rc == 0
        env = json.loads(capsys.readouterr().out)
        assert env["schema"] == "repro/v1"
        assert env["command"] == "degrade"
        assert env["config"]["shape"] == [4, 4]
        points = env["result"]
        assert [p["kills"] for p in points] == [0, 1]
        assert points[0]["delivery_rate"] == 1.0


class TestJsonEnvelopes:
    """Every --json subcommand wraps its payload in the repro/v1 envelope."""

    def _parse(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def test_run_envelope(self, capsys):
        rc = main(
            [
                "run",
                "--shape", "3x3",
                "--messages", "80", "--warmup", "10",
                "--json",
            ]
        )
        assert rc == 0
        env = self._parse(capsys)
        assert env["schema"] == "repro/v1"
        assert env["command"] == "run"
        assert env["config"]["noc"]["shape"] == [3, 3]
        assert env["result"]["packets_delivered"] == 80
        assert "config" not in env["result"]  # config lives in the envelope

    def test_lint_envelope(self, capsys):
        rc = main(["lint", "--shape", "4x4", "--json"])
        assert rc == 0
        env = self._parse(capsys)
        assert env["schema"] == "repro/v1"
        assert env["command"] == "lint"
        assert isinstance(env["result"], list)

    def test_sweep_envelope(self, capsys):
        rc = main(
            ["sweep", "--messages", "80", "--rates", "0.05", "0.1", "--json"]
        )
        assert rc == 0
        env = self._parse(capsys)
        assert env["schema"] == "repro/v1"
        assert env["command"] == "sweep"
        assert [p["rate"] for p in env["result"]] == [0.05, 0.1]
        assert all(p["result"]["cycles"] > 0 for p in env["result"])


class TestTelemetryFlag:
    def test_run_writes_valid_ndjson(self, capsys, tmp_path):
        from repro.telemetry import validate_ndjson_lines

        out_path = tmp_path / "run.ndjson"
        rc = main(
            [
                "run",
                "--shape", "4x4",
                "--messages", "120", "--warmup", "20",
                "--link-error-rate", "0.02",
                "--telemetry", str(out_path),
                "--metrics-interval", "50",
            ]
        )
        assert rc == 0
        assert "telemetry:" in capsys.readouterr().out
        lines = out_path.read_text().splitlines()
        assert len(lines) > 1
        assert validate_ndjson_lines(lines) == []

    def test_telemetry_summary_in_json_result(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "run.ndjson"
        rc = main(
            [
                "run",
                "--shape", "3x3",
                "--messages", "60", "--warmup", "10",
                "--telemetry", str(out_path),
                "--json",
            ]
        )
        assert rc == 0
        env = json.loads(capsys.readouterr().out)
        assert env["config"]["telemetry"]["enabled"] is True
        assert env["result"]["telemetry"]["samples"] >= 0


class TestCheckpointFlags:
    RUN_FLAGS = [
        "run",
        "--shape", "3x3",
        "--messages", "150", "--warmup", "20",
        "--link-error-rate", "0.02",
        "--json",
    ]

    def test_checkpoint_flags_must_pair(self, capsys):
        rc = main(["run", "--checkpoint-interval", "50"])
        assert rc == 2
        assert "together" in capsys.readouterr().err

    def test_run_writes_checkpoint_and_resume_completes_identically(
        self, capsys, tmp_path
    ):
        """`run --checkpoint` leaves its last snapshot behind; `run
        --resume` on that snapshot replays the remaining cycles and emits
        the exact same JSON envelope as the original complete run."""
        import json as _json

        ckpt = str(tmp_path / "cli.ckpt")
        rc = main(
            self.RUN_FLAGS + ["--checkpoint", ckpt, "--checkpoint-interval", "40"]
        )
        assert rc == 0
        golden = _json.loads(capsys.readouterr().out)
        assert golden["result"]["counters"]["checkpoints_written"] >= 1

        rc = main(["run", "--resume", ckpt, "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.err
        resumed = _json.loads(captured.out)
        assert resumed == golden

    def test_resume_missing_file_exits_2(self, capsys, tmp_path):
        rc = main(["run", "--resume", str(tmp_path / "nope.ckpt")])
        assert rc == 2
        assert "no such checkpoint" in capsys.readouterr().err


class TestVerifyCommand:
    def test_healthy_mesh_certifies(self, capsys):
        rc = main(["verify", "--shape", "4x4", "--routing", "xy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "connectivity       PASS" in out
        assert "livelock-freedom   PASS" in out
        assert "deadlock-freedom   PASS" in out
        assert "CERTIFIED" in out

    def test_torus_xy_fails_with_witness(self, capsys):
        rc = main(
            ["verify", "--shape", "4x4", "--torus",
             "--routing", "xy"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "deadlock-freedom   FAIL" in out
        assert "deadlock witness:" in out
        assert "NOT CERTIFIED" in out

    def test_single_link_kill_sweep(self, capsys):
        rc = main(
            ["verify", "--shape", "3x3",
             "--routing", "ft_table", "--single-link-kills",
             "--multi-kill", "2", "--samples", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "single-link kills  PASS  24 exhaustive trials" in out
        assert "2-link kills       PASS  3 sampled trials" in out

    def test_degraded_flags_certify_the_degraded_platform(self, capsys):
        rc = main(
            ["verify", "--shape", "4x4", "--routing", "xy",
             "--dead-link", "5:east"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 permanent faults applied" in out

    def test_json_envelope(self, capsys):
        import json

        rc = main(
            ["verify", "--shape", "3x3", "--routing", "xy",
             "--json"]
        )
        assert rc == 0
        env = json.loads(capsys.readouterr().out)
        assert env["schema"] == "repro/v1"
        assert env["command"] == "verify"
        (entry,) = env["result"]
        assert entry["routing"]["certified"] is True
        assert entry["routing"]["delivered_pairs"] == 72

    def test_config_file_path(self, capsys, tmp_path):
        import json
        import pathlib

        fixture = (
            pathlib.Path(__file__).parent
            / "fixtures" / "lint" / "torus_xy_no_recovery.json"
        )
        rc = main(["verify", str(fixture)])
        assert rc == 1  # torus XY: deadlock-prone
        out = capsys.readouterr().out
        assert "deadlock-freedom   FAIL" in out

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        rc = main(["verify", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestShapeFlags:
    def test_shape_flag_parses(self):
        args = build_parser().parse_args(["run", "--shape", "4x4x4"])
        assert args.shape == "4x4x4"

    def test_2d_shape_emits_shape_and_latency(self, capsys):
        import json

        rc = main(
            ["run", "--shape", "3x3", "--messages", "60", "--warmup", "10",
             "--json"]
        )
        assert rc == 0
        noc = json.loads(capsys.readouterr().out)["config"]["noc"]
        assert noc["shape"] == [3, 3] and noc["link_latency"] == 1
        assert "width" not in noc and "height" not in noc

    def test_3d_shape_selects_mesh3d(self, capsys):
        import json

        rc = main(
            ["run", "--shape", "2x2x2", "--link-latency", "1,1,2",
             "--retx-depth", "5", "--messages", "60", "--warmup", "10",
             "--json"]
        )
        assert rc == 0
        noc = json.loads(capsys.readouterr().out)["config"]["noc"]
        assert noc["shape"] == [2, 2, 2]
        assert noc["topology"] == "mesh3d"
        assert noc["link_latency"] == [1, 1, 2]
        assert "width" not in noc

    @pytest.mark.parametrize(
        "argv",
        [
            # At the parent commit these simulated the 8x8 default and
            # dropped --width 6 without a word.
            ["sweep", "--width", "3", "--height", "3"],
            ["run", "--shape", "3x3", "--width", "6"],
            ["degrade", "--height", "4"],
            ["lint", "--width", "4"],
            ["verify", "--width", "4", "--height", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_width_height_flags_are_unrecognised(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_simulates_the_shape_it_is_given(self, capsys):
        import json

        rc = main(["sweep", "--shape", "3x3", "--messages", "60",
                   "--rates", "0.05", "--json"])
        assert rc == 0
        env = json.loads(capsys.readouterr().out)
        assert env["config"]["shape"] == [3, 3]
        # 3x3 uniform traffic averages under 2 hops; the 8x8 default ~5.3.
        assert env["result"][0]["result"]["avg_hops"] < 2.5

    def test_bad_shape_grammar_exits_2(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--shape", "4xx4"])
        assert "shape" in capsys.readouterr().err

    def test_kill_pillars_requires_a_3d_shape(self, capsys):
        rc = main(["degrade", "--shape", "4x4", "--kill-pillars"])
        assert rc == 2
        assert "3-axis" in capsys.readouterr().err

    def test_up_down_fault_specs_need_a_third_axis(self, capsys):
        rc = main(["run", "--dead-link", "0:up", "--shape", "4x4",
                   "--messages", "60", "--warmup", "10"])
        assert rc == 2
        assert "no such link" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lint", "verify"])
    @pytest.mark.parametrize("site", ["99:east", "0:up"])
    def test_lint_and_verify_refuse_a_missing_component_as_run_does(
        self, capsys, command, site
    ):
        flags = ["--dead-link", site, "--shape", "4x4",
                 "--messages", "60", "--warmup", "10"]
        assert main(["run", *flags]) == 2
        refusal = capsys.readouterr().err.strip().removeprefix("error: ")
        assert site.split(":")[0] in refusal
        assert main([command, *flags]) != 0
        captured = capsys.readouterr()
        assert refusal in captured.out + captured.err


class TestCampaignCommand:
    """The fleet-scale campaign service front-end (docs/CAMPAIGNS.md)."""

    def _spec(self, tmp_path, names=("a", "b")):
        import json

        config = {
            # Legacy spelling on purpose: spec fragments written before the
            # canonical config still load (upgraded before the merge).
            "noc": {"width": 3, "height": 3},
            "workload": {
                "num_messages": 120,
                "warmup_messages": 20,
                "injection_rate": 0.1,
                "seed": 3,
            },
        }
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {"variants": [{"name": n, "config": config} for n in names]}
            )
        )
        return str(spec)

    def test_spec_with_both_spellings_is_refused(self, capsys, tmp_path):
        import json

        spec = tmp_path / "both.json"
        spec.write_text(
            json.dumps(
                {
                    "variants": [
                        {
                            "name": "a",
                            "config": {"noc": {"shape": [3, 3], "width": 4}},
                        }
                    ]
                }
            )
        )
        assert main(["campaign", str(spec)]) == 2
        assert "noc.shape and noc.width" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "node, direction, refusal",
        [
            (99, "east", "names node 99 but the topology has 9 nodes"),
            (0, "up", "names link 0:up but no such link exists"),
        ],
    )
    def test_spec_naming_a_missing_component_fails_the_lint_pass(
        self, capsys, tmp_path, node, direction, refusal
    ):
        import json
        import os

        ghost = {"kind": "link", "node": node, "direction": direction}
        spec = tmp_path / "ghost.json"
        spec.write_text(
            json.dumps(
                {
                    "variants": [
                        {
                            "name": "ghost",
                            "config": {
                                "noc": {"shape": [3, 3]},
                                "faults": {"permanent": [ghost]},
                            },
                        }
                    ]
                }
            )
        )
        camp = tmp_path / "camp"
        assert main(["campaign", str(spec), "--dir", str(camp)]) == 1
        err = capsys.readouterr().err
        assert "NOC000" in err and refusal in err
        # Refused before any worker started, not after its retries.
        assert not os.path.exists(camp / "journal.jsonl")

    def test_parser_defaults(self):
        # Unset flags stay None so --resume can tell "not given" from
        # "explicitly the default" when overriding journal settings.
        args = build_parser().parse_args(["campaign", "spec.json"])
        assert args.processes is None and args.retries is None
        assert args.resume is None and not args.no_cache

    def test_spec_and_resume_are_exclusive(self, capsys):
        assert main(["campaign"]) == 2
        assert "spec" in capsys.readouterr().err
        assert main(["campaign", "spec.json", "--resume", "dir"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_campaign_dir_layout_and_envelope(self, capsys, tmp_path):
        import json
        import os

        camp = str(tmp_path / "camp")
        rc = main(
            ["campaign", self._spec(tmp_path), "--dir", camp, "--json"]
        )
        assert rc == 0
        env = json.loads(capsys.readouterr().out)
        assert env["schema"] == "repro/v1"
        assert env["command"] == "campaign"
        rows = env["result"]["rows"]
        assert [r["name"] for r in rows] == ["a", "b"]
        assert all(r["error"] is None for r in rows)
        # Variant b duplicates a's config, so it is served from cache.
        assert rows[1]["metadata"]["cache_hit"] is True
        assert env["result"]["stats"]["cache_hits"] == 1
        assert os.path.exists(os.path.join(camp, "journal.jsonl"))
        assert os.path.isdir(os.path.join(camp, "cache"))

    def test_rerunning_a_dir_requires_resume(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        camp = str(tmp_path / "camp")
        assert main(["campaign", spec, "--dir", camp, "--json"]) == 0
        capsys.readouterr()
        assert main(["campaign", spec, "--dir", camp]) == 2
        assert "resume" in capsys.readouterr().err

    def test_resume_completed_campaign_is_a_no_op_replay(
        self, capsys, tmp_path
    ):
        import json

        camp = str(tmp_path / "camp")
        assert (
            main(["campaign", self._spec(tmp_path), "--dir", camp, "--json"])
            == 0
        )
        first = json.loads(capsys.readouterr().out)
        assert main(["campaign", "--resume", camp, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        metric = lambda r: (r["avg_latency"], r["packets_delivered"])  # noqa: E731
        assert [metric(r) for r in second["result"]["rows"]] == [
            metric(r) for r in first["result"]["rows"]
        ]
        assert second["result"]["stats"]["attempts"] == 1  # all carried

    def test_resume_honors_no_cache(self, capsys, tmp_path):
        import json
        import os

        from repro.service import CampaignJournal, read_journal

        camp = str(tmp_path / "camp")
        assert (
            main(["campaign", self._spec(tmp_path), "--dir", camp, "--json"])
            == 0
        )
        capsys.readouterr()
        # Queue a third variant duplicating the (now cached) config, then
        # resume with --no-cache: it must re-run, not hit the cache.
        jpath = os.path.join(camp, "journal.jsonl")
        config = read_journal(jpath).records[0]["config"]  # a's "queued"
        with CampaignJournal.append_to(jpath) as journal:
            journal.append("queued", variant=2, name="c", config=config)
        rc = main(["campaign", "--resume", camp, "--no-cache", "--json"])
        assert rc == 0
        env = json.loads(capsys.readouterr().out)
        fresh = env["result"]["rows"][2]
        assert fresh["error"] is None
        assert "cache_hit" not in fresh["metadata"]
        # Stats cover the whole campaign: b's pre-resume hit, none since.
        assert env["result"]["stats"]["cache_hits"] == 1
        assert env["result"]["stats"]["attempts"] == 2

    def test_resume_with_zero_processes_exits_2(self, capsys, tmp_path):
        """--processes 0 used to reach the supervisor unvalidated on the
        resume path and spin forever waiting for a slot."""
        camp = str(tmp_path / "camp")
        assert main(["campaign", self._spec(tmp_path), "--dir", camp]) == 0
        capsys.readouterr()
        assert main(["campaign", "--resume", camp, "--processes", "0"]) == 2
        assert "processes" in capsys.readouterr().err

    def test_resume_missing_dir_exits_2(self, capsys, tmp_path):
        rc = main(["campaign", "--resume", str(tmp_path / "nope")])
        assert rc == 2
        assert "journal" in capsys.readouterr().err

    def test_grid_spec_expands_axes(self, capsys, tmp_path):
        import json

        spec = tmp_path / "grid.json"
        spec.write_text(
            json.dumps(
                {
                    "base": {
                        "noc": {"shape": [3, 3]},
                        "workload": {
                            "num_messages": 120,
                            "warmup_messages": 20,
                        },
                    },
                    "axes": {
                        "workload.injection_rate": [0.05, 0.1],
                        "workload.seed": [1, 2],
                    },
                }
            )
        )
        camp = str(tmp_path / "camp")
        rc = main(["campaign", str(spec), "--dir", camp, "--json"])
        assert rc == 0
        env = json.loads(capsys.readouterr().out)
        rows = env["result"]["rows"]
        assert len(rows) == 4
        assert all(r["error"] is None for r in rows)
        rates = {r["config"]["workload"]["injection_rate"] for r in rows}
        assert rates == {0.05, 0.1}

    def test_failed_variant_exits_1(self, capsys, tmp_path):
        import json

        spec = tmp_path / "bad.json"
        spec.write_text(
            json.dumps(
                {
                    "variants": [
                        {
                            "name": "bad",
                            "config": {
                                "workload": {"pattern": "no_such_pattern"}
                            },
                        }
                    ]
                }
            )
        )
        rc = main(
            [
                "campaign", str(spec),
                "--dir", str(tmp_path / "camp"),
                "--no-lint", "--json",
            ]
        )
        assert rc == 1
        env = json.loads(capsys.readouterr().out)
        assert "no_such_pattern" in env["result"]["rows"][0]["error"]


# -- one front door: the CLI as a projection of repro.api -------------------

ROOT = pathlib.Path(__file__).parent.parent
CLI_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "cli"


def run_cli(argv):
    """``main(argv)`` -> (exit status, stdout, stderr), whether the status
    was returned or raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(argv, *mentions):
    code, out, err = run_cli(argv)
    assert code == 2, (argv, code, err)
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1, err
    for mention in mentions:
        assert mention in error_lines[0], (mention, err)


class TestIgnoredFlagsAndTracebacks:
    """Every case here either died with a traceback (exit 1) or silently
    ignored the flag at d5e530f; the shared usage-error policy now names
    the problem and exits 2."""

    @pytest.mark.parametrize(
        "argv, mentions",
        [
            (["sweep", "--shape", "0x0"], ["positive"]),
            (["sweep", "--shape", "4x4", "--link-latency", "1,1,2"], ["link_latency"]),
            (
                ["degrade", "--burst", "--burst-sites", "1000", "--shape", "3x3"],
                ["1000 sites"],
            ),
            (
                ["degrade", "--burst", "--shape", "3x3x3", "--link-latency", "1,1,2"],
                ["--link-latency", "--burst"],
            ),
            (["degrade", "--burst", "--kills", "3"], ["--kills", "--burst"]),
            # Typing the default is still typing it.
            (["degrade", "--burst", "--kills", "8"], ["--kills", "--burst"]),
            (
                ["degrade", "--burst", "--kill-pillars", "--shape", "3x3x3"],
                ["--kill-pillars", "--burst"],
            ),
            (["figure", "8", "--messages", "50"], ["fixed-duration", "--messages"]),
            (["figure", "9", "--messages", "50"], ["fixed-duration"]),
            (["figure", "10", "--messages", "50"], ["fixed-duration"]),
            (["run", "--metrics-interval", "7"], ["--metrics-interval", "--telemetry"]),
            (["campaign", "--resume", "camp", "--no-lint"], ["--no-lint", "--resume"]),
            (["campaign", "--resume", "camp", "--dir", "x"], ["--dir", "--resume"]),
        ],
        ids=lambda value: " ".join(value) if value[0].islower() else "",
    )
    def test_exits_2_naming_the_problem(self, argv, mentions):
        assert_usage_error(argv, *mentions)

    def test_metrics_interval_reaches_the_config(self, tmp_path):
        code, out, _ = run_cli(
            ["run", "--shape", "3x3", "--messages", "40", "--warmup", "5",
             "--telemetry", tmp_path / "t.ndjson", "--metrics-interval", "7",
             "--json"]
        )
        assert code == 0
        assert json.loads(out)["config"]["telemetry"]["metrics_interval"] == 7


class TestUsageErrorPolicy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--retx-depth", "1"],
            ["run", "--intermittent-link", "0:east:2.0:5"],
            ["lint", "--shape", "4xx4"],
            ["verify", "no/such/config.json"],
            ["figure", "8", "--messages", "5"],
            ["degrade", "--shape", "3x3", "--kills", "1000"],
            ["campaign"],
            ["campaign", "no/such/spec.json"],
            ["sweep", "--shape", "0x0"],
        ],
        ids=" ".join,
    )
    def test_bad_input_is_one_error_line_and_exit_2(self, argv):
        # table1 takes no input, so it has no bad-input case.
        assert_usage_error(argv)

    def test_a_crash_mid_simulation_is_not_a_usage_error(self, monkeypatch):
        """The policy covers input construction: a failure that is not one
        of its types stays a traceback, not an ``error:`` line."""
        from repro.noc.network import Network

        def boom(self):
            raise AssertionError("router invariant broken")

        monkeypatch.setattr(Network, "step", boom)
        with pytest.raises(AssertionError, match="router invariant"):
            main(["run", "--shape", "3x3", "--messages", "20", "--warmup", "5"])

    def test_invariant_violations_keep_exit_1(self, monkeypatch):
        from repro.analysis import InvariantViolationError
        from repro.noc.network import Network

        def boom(self):
            raise InvariantViolationError([])

        monkeypatch.setattr(Network, "step", boom)
        code, _, err = run_cli(
            ["run", "--shape", "3x3", "--messages", "20", "--warmup", "5"]
        )
        assert code == 1 and "invariant violation" in err and "error:" not in err


def parser_inventory(parser):
    """Per subcommand, every flag's option strings, dest, default, type
    name, choices, nargs and required — what the fixture recorded from the
    parent commit's parser."""
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: [
            {
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", None),
                "choices": None if action.choices is None else list(action.choices),
                "nargs": action.nargs,
                "required": action.required,
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, sub in subparsers.choices.items()
    }


#: The only intended differences from d5e530f's parser: flags that must
#: know whether they were typed lost their default value to None (the
#: handler supplies it; for ``figure`` the experiment's own default, 1500,
#: applies).  (subcommand, dest) -> the parent's default.
NONE_DEFAULTS = {
    ("run", "metrics_interval"): 100,
    ("degrade", "link_latency"): "1",
    ("figure", "messages"): 1200,
}


def test_flag_surface_is_the_parents():
    """The refactor added and dropped no flag: same subcommands, same
    flags in the same order, same dests/types/choices/nargs/defaults."""
    expected = json.loads((CLI_FIXTURES / "flag_inventory.json").read_text())
    for (command, dest), default in NONE_DEFAULTS.items():
        (entry,) = [a for a in expected[command] if a["dest"] == dest]
        assert entry["default"] == default
        entry["default"] = None
    assert parser_inventory(build_parser()) == expected


class TestCliApiParity:
    @settings(max_examples=12, deadline=None)
    @given(platform=platforms())
    def test_run_config_is_load_config_of_the_same_overrides(self, platform):
        noc, workload = platform.noc, platform.workload
        latency = noc.link_latency
        flags = {  # flag -> (override name, value)
            "--shape": ("shape", noc.shape_text),
            "--link-latency": (
                "link_latency",
                str(latency) if isinstance(latency, int) else ",".join(map(str, latency)),
            ),
            "--vcs": ("vcs", noc.num_vcs),
            "--buffer-depth": ("buffer_depth", noc.vc_buffer_depth),
            "--flits": ("flits", noc.flits_per_packet),
            "--retx-depth": ("retx_depth", noc.retx_buffer_depth),
            "--routing": ("routing", noc.routing.value),
            "--rate": ("rate", workload.injection_rate),
            "--messages": ("messages", workload.num_messages),
            "--warmup": ("warmup", workload.warmup_messages),
            "--seed": ("seed", workload.seed),
            "--backend": ("backend", platform.backend),
            "--max-cycles": ("max_cycles", 5),  # the config is the subject
        }
        argv = ["run", "--json"]
        for flag, (_, value) in flags.items():
            argv += [flag, value]
        overrides = {name: value for name, value in flags.values()}
        if noc.is_torus:
            argv += ["--torus", "--deadlock-recovery"]
            overrides.update(topology="torus", deadlock_recovery_enabled=True)
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert json.loads(out)["config"] == api.config_to_dict(
            api.load_config(**overrides)
        )

    def test_sweep_json_is_api_sweep_point_for_point(self):
        code, out, _ = run_cli(
            ["sweep", "--shape", "3x3", "--messages", "80",
             "--rates", "0.05", "0.1", "--json"]
        )
        assert code == 0
        results = api.sweep(
            rates=[0.05, 0.1],
            shape="3x3",
            retx_depth=api.min_retx_depth(1),
            routing="xy",
            messages=80,
            warmup=16,
            max_cycles=60_000,
        )
        assert json.loads(out)["result"] == [
            {"rate": rate, "result": api.result_to_dict(r, include_config=False)}
            for rate, r in zip([0.05, 0.1], results)
        ]

    def test_verify_and_lint_walk_the_same_files_in_the_same_order(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis import linter

        config = json.dumps(api.config_dict(shape="3x3"))
        for relative in ("b.json", "a.json", "sub/d.json", "sub/c.json"):
            path = tmp_path / relative
            path.parent.mkdir(exist_ok=True)
            path.write_text(config)
        (tmp_path / "notes.txt").write_text("not a config")
        linted, verified = [], []
        lint_file, verify = linter._lint_file, api.verify
        monkeypatch.setattr(
            linter,
            "_lint_file",
            lambda path, **kw: linted.append(str(path)) or lint_file(path, **kw),
        )
        monkeypatch.setattr(
            api,
            "verify",
            lambda target, **kw: verified.append(str(target)) or verify(target, **kw),
        )
        assert run_cli(["lint", tmp_path])[0] == 0
        assert run_cli(["verify", tmp_path])[0] == 0
        assert linted == verified == [
            str(tmp_path / name)
            for name in ("a.json", "b.json", "sub/c.json", "sub/d.json")
        ]


PINNED = json.loads((CLI_FIXTURES / "parent_d5e530f" / "commands.json").read_text())

#: The accepted differences from d5e530f's output.
CONFIG_SUPERSET = {"lint_flags_json", "verify_flags_json"}  # complete config dict
GAINED_A_TABLE = {"figure_5"}  # the integrity side-table follows the old output
#: The same result, and a config without the knobs that became constants.
LOST_RETIRED_KNOBS = {"run_json", "run_3d_json"}
RETIRED_KNOBS = {
    "collect_power",
    "noc.flit_width_bits",
    "telemetry.events",
    "telemetry.series",
    "telemetry.series_capacity",
    "telemetry.max_events",
    "telemetry.flight_recorder_depth",
}


def _leaves(tree, prefix=""):
    """``{dotted path: value}`` of every non-dict value in a nested dict."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _is_superset(new, old):
    if isinstance(old, dict):
        return isinstance(new, dict) and all(
            key in new and _is_superset(new[key], value) for key, value in old.items()
        )
    return new == old


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stdout_is_byte_for_byte_the_parents(name, monkeypatch):
    """stdout and exit status of a pinned command set, against what the
    parent commit (d5e530f) printed for the same argv."""
    monkeypatch.chdir(ROOT)  # the path-taking commands print relative paths
    expected = (CLI_FIXTURES / "parent_d5e530f" / f"{name}.stdout").read_text()
    code, out, _ = run_cli(PINNED[name]["argv"])
    assert code == PINNED[name]["exit"]
    if name in CONFIG_SUPERSET:
        new, old = json.loads(out), json.loads(expected)
        assert new["result"] == old["result"]
        assert _is_superset(new["config"], old["config"])
        assert set(new["config"]) == set(api.config_dict())  # now complete
    elif name in LOST_RETIRED_KNOBS:
        new, old = json.loads(out), json.loads(expected)
        assert new["result"] == old["result"]
        kept, before = _leaves(new["config"]), _leaves(old["config"])
        assert set(before) - set(kept) == RETIRED_KNOBS
        assert kept == {key: before[key] for key in kept}
    elif name in GAINED_A_TABLE:
        assert out.startswith(expected) and "integrity" in out[len(expected):]
    else:
        assert out == expected


class TestFacadeHomes:
    """What moved out of the CLI is usable without it."""

    def test_variants_from_spec_runs_the_file_the_cli_runs(self):
        grid_spec = {
            "base": {"noc": {"width": 3, "height": 3}},  # legacy spelling
            "axes": {"workload.injection_rate": [0.05, 0.1]},
        }
        variants = api.variants_from_spec(grid_spec)
        assert [name for name, _ in variants] == [
            "injection_rate=0.05", "injection_rate=0.1",
        ]
        assert all(config.noc.shape == (3, 3) for _, config in variants)
        (named,) = api.variants_from_spec(
            {"variants": [{"name": "a", "config": {"workload": {"seed": 9}}}]}
        )
        assert named[0] == "a" and named[1].workload.seed == 9
        assert named[1].noc == api.load_config().noc  # partial: defaults fill in
        with pytest.raises(ValueError, match="axes"):
            api.variants_from_spec({})

    def test_faults_from_specs_is_a_faults_override(self):
        faults = api.faults_from_specs(
            {"link": 0.01, "routing": 0.0},
            0.3,
            dead_links=["4:east@50"],
            dead_routers=["8"],
            intermittent_links=["0:east:0.4:30:200"],
            wear_out={"threshold": 5.0},
        )
        config = api.load_config(shape="3x3", faults=faults, seed=7)
        assert config.faults.seed == 7 and config.faults.link_multi_bit_fraction == 0.3
        assert [f.kind for f in config.faults.permanent] == ["link", "router"]
        assert len(config.faults.intermittent) == 1
        assert config.faults.wear_out.threshold == 5.0
        assert list(faults["rates"]) == ["link"]  # zero rates are dropped
        with pytest.raises(ValueError, match="fault spec"):
            api.faults_from_specs({}, dead_links=["5:sideways"])

    def test_config_dict_is_load_config_without_the_constructors(self):
        overrides = dict(shape="4x4x2", link_latency="1,1,2", retx_depth=5, vcs=2)
        assert api.config_from_dict(api.config_dict(**overrides)) == api.load_config(
            **overrides
        )
        # A value the constructors reject survives for lint to diagnose.
        rejected = api.config_dict(retx_depth=1)
        with pytest.raises(ValueError):
            api.config_from_dict(rejected)
        assert "NOC002" in {d.rule_id for d in api.lint_dict(rejected)}

    def test_api_run_keeps_metrics_interval_with_telemetry_path(self, tmp_path):
        """``api.run(telemetry_path=, metrics_interval=)`` used to enable
        telemetry *after* applying the interval, replacing it."""
        result = api.run(
            shape="3x3", messages=30, warmup=5, metrics_interval=7,
            telemetry_path=tmp_path / "t.ndjson",
        )
        assert result.config.telemetry.metrics_interval == 7
