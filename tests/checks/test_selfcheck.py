"""The pass must hold on the repo's own source — and via the CLI.

This is the tentpole's acceptance test: ``python -m repro check`` runs
the full checker set over ``src/repro`` and ``examples`` and must come
back clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.checks import REPORT_VERSION, repo_root, run_repo_checks
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent.parent


class TestSelfCheck:
    def test_repo_root_is_detected(self):
        assert repo_root() == REPO

    def test_repo_source_passes_every_checker(self):
        report = run_repo_checks()
        assert report.ok, "\n" + report.render_text()

    def test_all_five_groups_actually_ran(self):
        report = run_repo_checks()
        prefixes = {code[:3] for code in report.codes_run}
        assert {"DET", "WP0", "ASY", "LK0", "FS0"} <= prefixes

    def test_source_and_examples_are_covered(self):
        report = run_repo_checks()
        assert report.files_checked > 50


class TestCheckCli:
    def test_check_command_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")

    def test_json_output_schema(self, capsys):
        assert main(["check", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == REPORT_VERSION
        assert payload["ok"] is True
        assert isinstance(payload["findings"], list)
        for finding in payload["findings"]:
            assert set(finding) == {
                "code", "file", "line", "severity", "message",
            }
        summary = payload["summary"]
        assert set(summary) == {"findings", "suppressed", "checks", "files"}
        assert all(
            isinstance(value, int) for value in summary.values()
        )

    def test_select_and_ignore_flags(self, capsys):
        assert main(["check", "--select", "determinism"]) == 0
        assert "6 check(s)" in capsys.readouterr().out
        assert (
            main(
                [
                    "check",
                    "--select", "determinism",
                    "--ignore", "DET005",
                ]
            )
            == 0
        )
        assert "5 check(s)" in capsys.readouterr().out

    def test_unknown_selection_exits_two(self, capsys):
        assert main(["check", "--select", "TYPO"]) == 2
        assert "unknown checker selection" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n\nx = random.random()\n")
        assert main(["check", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_check_workload_declares_no_flag_group(self):
        # check must NOT enable the sink group: its --format text|json
        # parameter would collide with the sink --format jsonl|csv flag.
        from repro.api.workloads import get_workload

        assert get_workload("check").flags == frozenset()

