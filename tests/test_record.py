"""The claim vocabulary and ``tools/record.py``'s gate, with no simulation.

``Claim`` judges ``value op bound``; the committed artefacts are consistent
with that arithmetic; and the recorder's ``--check`` tells current from
stale from violated from missing on a two-claim fake artefact.
"""

import importlib.util
import json
import pathlib
import re

import pytest

from repro.experiments.common import Claim, claim_failures, stored_claims

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "record", REPO_ROOT / "tools" / "record.py"
)
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)


@pytest.mark.parametrize(
    "op, below, at, above",
    [
        ("<", True, False, False),
        ("<=", True, True, False),
        (">", False, False, True),
        (">=", False, True, True),
        ("==", False, True, False),
    ],
)
def test_claim_holds_for_each_op_including_the_boundary(op, below, at, above):
    verdicts = [Claim("c", value, op, 2.0).holds for value in (1.0, 2.0, 3.0)]
    assert verdicts == [below, at, above]


def test_claim_judges_the_value_it_stores():
    claim = Claim("c", 0.99999999, "==", 1.0)
    assert claim.to_dict() == {
        "name": "c", "value": 1.0, "op": "==", "bound": 1.0, "holds": True,
    }
    assert Claim("flag", False, "==", False).to_dict()["value"] is False


@pytest.mark.parametrize("name", ["RESIL_noc", "CLAIMS_paper"])
def test_committed_claims_are_consistent(name):
    payload = json.loads((REPO_ROOT / f"{name}.json").read_text())
    rows = list(stored_claims(payload))
    names = [row["name"] for row in rows]
    assert rows and len(names) == len(set(names))
    for row in rows:
        assert row["holds"] == Claim(
            row["name"], row["value"], row["op"], row["bound"]
        ).holds, row
    assert claim_failures(payload) == []


def test_claims_artefact_covers_every_figure_and_the_ablations():
    figures = json.loads((REPO_ROOT / "CLAIMS_paper.json").read_text())["figures"]
    prefixes = {
        row["name"].split(".")[0] for f in figures.values() for row in f["claims"]
    }
    assert prefixes == {
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13",
        "table1", "sat", "abl",
    }


def test_a_false_claim_must_be_a_listed_deviation_and_vice_versa():
    false = Claim("fig.x", 3.0, "<", 2.0).to_dict()
    true = Claim("fig.y", 1.0, "<", 2.0).to_dict()
    payload = {"claims": [false, true]}
    (failure,) = claim_failures(payload)
    assert "fig.x" in failure and "3.0 < 2.0" in failure
    assert claim_failures({**payload, "known_deviations": {"fig.x": "why"}}) == []
    (failure,) = claim_failures(
        {**payload, "known_deviations": {"fig.x": "why", "fig.y": "stale"}}
    )
    assert "fig.y" in failure


def run_fake(root, check, bound=2.0):
    """``record.record`` on a two-claim artefact under ``root``."""

    def build():
        rows = [Claim("fake.low", 1.5, "<", bound), Claim("fake.count", 3, ">=", 1)]
        return {"artifact": "FAKE", "claims": [row.to_dict() for row in rows]}

    return record.record("FAKE", build, claim_failures, root, check)


def test_check_tells_missing_current_stale_and_violated_apart(tmp_path, capsys):
    assert run_fake(tmp_path, check=True) == 1
    assert "FAKE.json is not committed" in capsys.readouterr().err

    assert run_fake(tmp_path, check=False) == 0
    assert run_fake(tmp_path, check=True) == 0
    verdict = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(
        r"FAKE: up to date, every expectation holds \(\d+\.\d s wall\)", verdict
    )

    # One byte of drift in the committed file.
    artefact = tmp_path / "FAKE.json"
    artefact.write_text(artefact.read_text().replace("1.5", "1.6"))
    assert run_fake(tmp_path, check=True) == 1
    assert "FAKE.json is stale" in capsys.readouterr().err

    # A bound moved in code past the measured value is named.
    assert run_fake(tmp_path, check=True, bound=1.0) == 1
    assert "claim fake.low does not hold" in capsys.readouterr().err


def test_measured_blocks_are_rewritten_from_the_tables_and_nothing_else_moves():
    figures = {
        "figure5": {
            "tables": [
                {
                    "title": "t", "log_x": True, "xs": [1e-5, 0.1],
                    "series": [
                        {"label": "HBH", "values": [22.3712, 23.08]},
                        {"label": "E2E", "values": [22.4, 755.484]},
                    ],
                }
            ]
        },
        "figure8_9": {
            "tables": [
                {
                    "title": "t", "log_x": False, "xs": [0.1, 1.0],
                    "series": [{"label": "AD", "values": [0.0123, 0.5]}],
                }
            ]
        },
    }
    text = (
        "prose\n<!-- measured:figure5.0 .2f -->\nold\n<!-- /measured -->\nmore\n"
        "<!-- measured:figure8_9.0 .3f -->\n<!-- /measured -->\n"
    )
    assert record.measured_blocks(text, figures) == (
        "prose\n<!-- measured:figure5.0 .2f -->\n"
        "| error rate | HBH | E2E |\n|---|---|---|\n"
        "| 1e-5 | 22.37 | 22.40 |\n| 1e-1 | 23.08 | 755.48 |\n"
        "<!-- /measured -->\nmore\n"
        "<!-- measured:figure8_9.0 .3f -->\n"
        "| injection rate | AD |\n|---|---|\n| 0.1 | 0.012 |\n| 1.0 | 0.500 |\n"
        "<!-- /measured -->\n"
    )
