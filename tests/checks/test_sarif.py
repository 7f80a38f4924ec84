"""SARIF 2.1.0 output validation.

The container has no network and no ``jsonschema`` package, so the
schema conformance the acceptance criteria ask for is asserted
structurally: ``_validate_sarif`` walks the emitted log and enforces
the SARIF 2.1.0 requirements that apply to the subset of the format
the emitter produces — required properties, value enums, index
consistency — exactly the constraints GitHub's ``upload-sarif``
ingestion rejects on.
"""

from __future__ import annotations

import json

from repro import __version__
from repro.checks import (
    load_tree,
    repo_root,
    report_to_sarif,
    run_checks,
)
from repro.checks.sarif import SARIF_SCHEMA, SARIF_VERSION
from repro.cli import main


def _validate_sarif(log: dict) -> None:
    """Enforce SARIF 2.1.0 structure on the emitted subset."""
    assert log["$schema"] == SARIF_SCHEMA
    assert log["version"] == "2.1.0" == SARIF_VERSION
    assert isinstance(log["runs"], list) and log["runs"]
    for run in log["runs"]:
        driver = run["tool"]["driver"]  # tool.driver is required
        assert isinstance(driver["name"], str) and driver["name"]
        rules = driver.get("rules", [])
        for rule in rules:
            assert isinstance(rule["id"], str) and rule["id"]
            assert rule["shortDescription"]["text"]
            level = rule["defaultConfiguration"]["level"]
            assert level in ("none", "note", "warning", "error")
        ids = [rule["id"] for rule in rules]
        assert len(ids) == len(set(ids)), "duplicate rule ids"
        if "columnKind" in run:
            assert run["columnKind"] in (
                "utf16CodeUnits", "unicodeCodePoints",
            )
        for base_id, base in run.get("originalUriBaseIds", {}).items():
            assert isinstance(base_id, str) and base_id
            assert isinstance(base, dict)
        assert isinstance(run["results"], list)
        for result in run["results"]:
            assert result["message"]["text"]
            assert result["level"] in (
                "none", "note", "warning", "error",
            )
            if "ruleIndex" in result:
                index = result["ruleIndex"]
                assert 0 <= index < len(rules)
                assert rules[index]["id"] == result["ruleId"]
            for location in result.get("locations", []):
                physical = location["physicalLocation"]
                artifact = physical["artifactLocation"]
                assert isinstance(artifact["uri"], str)
                if "uriBaseId" in artifact:
                    assert (
                        artifact["uriBaseId"]
                        in run.get("originalUriBaseIds", {})
                    )
                region = physical["region"]
                assert region["startLine"] >= 1


class TestEmitter:
    def test_clean_report_validates_and_advertises_rules(self):
        log = report_to_sarif(run_checks(load_tree(repo_root())))
        _validate_sarif(log)
        [run] = log["runs"]
        assert run["results"] == []
        rules = run["tool"]["driver"]["rules"]
        assert len(rules) >= 19
        assert run["tool"]["driver"]["version"] == __version__

    def test_findings_become_results_with_anchored_locations(
        self, tmp_path
    ):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n\nx = random.random()\n")
        log = report_to_sarif(run_checks(load_tree(tmp_path)))
        _validate_sarif(log)
        [run] = log["runs"]
        [result] = run["results"]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        [location] = result["locations"]
        artifact = location["physicalLocation"]["artifactLocation"]
        assert artifact["uri"] == "src/repro/bad.py"
        assert artifact["uriBaseId"] == "SRCROOT"
        assert location["physicalLocation"]["region"]["startLine"] == 3

    def test_suppressed_findings_are_absent(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n\n"
            "x = random.random()  # repro-check: ignore[DET001]\n"
        )
        report = run_checks(load_tree(tmp_path))
        assert report.suppressed == 1
        log = report_to_sarif(report)
        _validate_sarif(log)
        assert log["runs"][0]["results"] == []


class TestCli:
    def test_format_sarif_round_trips_through_the_cli(self, capsys):
        assert main(["check", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        _validate_sarif(log)

    def test_sarif_exit_code_still_reflects_findings(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n\nx = random.random()\n")
        assert (
            main(
                [
                    "check",
                    "--root", str(tmp_path),
                    "--format", "sarif",
                ]
            )
            == 1
        )
        log = json.loads(capsys.readouterr().out)
        _validate_sarif(log)
        assert log["runs"][0]["results"]
