"""The checker framework core: registry, selection, report."""

from __future__ import annotations

import pytest

from repro.checks import model
from repro.checks.model import (
    REPORT_VERSION,
    Checker,
    Finding,
    check_groups,
    get_check,
    register_check,
    run_checks,
)


def finding(code="TST901", file="src/repro/x.py", line=3, message="boom"):
    return Finding(
        code=code, file=file, line=line, severity="error", message=message
    )


@pytest.fixture
def sandbox_registry(monkeypatch):
    """A throwaway copy of the checker registry (tests register freely)."""
    monkeypatch.setattr(model, "_CHECKERS", dict(model._CHECKERS))


def checker(code, group="test-group", findings=()):
    return Checker(
        code=code,
        group=group,
        severity="error",
        summary="fabricated",
        run=lambda tree: list(findings),
    )


class TestFinding:
    def test_location_renders_file_and_line(self):
        assert finding().location == "src/repro/x.py:3"

    def test_key_is_code_file_line(self):
        assert finding().key() == ("TST901", "src/repro/x.py", 3)

    def test_bad_severity_fails_loudly(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(
                code="X", file="f.py", line=1, severity="fatal", message="m"
            )


class TestRegistry:
    def test_builtin_groups_are_registered(self):
        groups = check_groups()
        for group in (
            "determinism",
            "worker-purity",
            "async-hygiene",
            "contracts",
        ):
            assert group in groups

    def test_duplicate_registration_fails(self, sandbox_registry):
        register_check(checker("TST901"))
        with pytest.raises(ValueError, match="already registered"):
            register_check(checker("TST901"))

    def test_replace_allows_reregistration(self, sandbox_registry):
        register_check(checker("TST901"))
        register_check(checker("TST901"), replace=True)
        assert get_check("TST901").group == "test-group"

    def test_unknown_code_lists_choices(self):
        with pytest.raises(ValueError, match="DET001"):
            get_check("NOPE999")


class TestSelection:
    def test_select_by_exact_code(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        report = run_checks(tree, select=["DET001"])
        assert report.codes_run == ("DET001",)

    def test_select_by_group(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        report = run_checks(tree, select=["determinism"])
        assert set(report.codes_run) == {
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        }

    def test_select_by_prefix(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        report = run_checks(tree, select=["WP"])
        assert set(report.codes_run) == {"WP001", "WP002", "WP003"}

    def test_ignore_drops_codes(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        report = run_checks(
            tree, select=["determinism"], ignore=["DET005"]
        )
        assert "DET005" not in report.codes_run
        assert "DET001" in report.codes_run

    def test_unknown_selection_fails_loudly(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        with pytest.raises(ValueError, match="unknown checker selection"):
            run_checks(tree, select=["TYPO"])


class TestReport:
    def test_findings_sorted_by_file_line_code(
        self, sandbox_registry, make_tree
    ):
        hits = [
            finding(file="src/repro/b.py", line=2, code="TST902"),
            finding(file="src/repro/a.py", line=9, code="TST901"),
            finding(file="src/repro/b.py", line=2, code="TST901"),
        ]
        register_check(checker("TST901", findings=hits))
        tree = make_tree({"a.py": "x = 1\n", "b.py": "y = 2\n"})
        report = run_checks(tree, select=["TST901"])
        assert [f.key() for f in report.findings] == [
            ("TST901", "src/repro/a.py", 9),
            ("TST901", "src/repro/b.py", 2),
            ("TST902", "src/repro/b.py", 2),
        ]

    def test_text_report_lists_locations(self, sandbox_registry, make_tree):
        register_check(
            checker("TST901", findings=[finding(file="src/repro/m.py")])
        )
        tree = make_tree({"m.py": "x = 1\n"})
        text = run_checks(tree, select=["TST901"]).render_text()
        assert "src/repro/m.py:3: TST901 [error] boom" in text

    def test_clean_text_report_says_ok(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        assert run_checks(tree).render_text().startswith("OK:")

    def test_json_report_schema(self, make_tree):
        payload = run_checks(make_tree({"m.py": "x = 1\n"})).to_json()
        assert payload["version"] == REPORT_VERSION
        assert payload["ok"] is True
        assert payload["findings"] == []
        summary = payload["summary"]
        assert set(summary) == {"findings", "suppressed", "checks", "files"}
        assert summary["files"] == 1
