"""Registry contract checkers (RC001, RC002, RC005), drift demos
included."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro.checks.contracts import (
    check_family_axes,
    check_family_context,
    check_workload_flags,
)


@dataclass(frozen=True)
class Scenario:
    q: float = 1.0
    knots: int = 64


def family(**kw):
    base = dict(
        name="fab",
        scenario_type=Scenario,
        context_key=lambda s: s.knots,
        artifacts=("functions",),
        field_help=(("q", "NPR length"), ("knots", "resolution")),
    )
    base.update(kw)
    return SimpleNamespace(**base)


class TestRc001Context:
    def test_declared_context_passes(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        assert list(check_family_context(tree, [family()])) == []

    def test_missing_context_key_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_family_context(tree, [family(context_key=None)])
        )
        assert [f.code for f in findings] == ["RC001"]

    def test_context_key_without_artifacts_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_family_context(tree, [family(artifacts=())])
        )
        assert [f.code for f in findings] == ["RC001"]


class TestRc002Axes:
    def test_exact_coverage_passes(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        assert list(check_family_axes(tree, [family()])) == []

    def test_undocumented_axis_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_family_axes(
                tree, [family(field_help=(("q", "NPR length"),))]
            )
        )
        assert [f.code for f in findings] == ["RC002"]
        assert "'knots'" in findings[0].message

    def test_stale_help_entry_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_family_axes(
                tree,
                [
                    family(
                        field_help=(
                            ("q", "NPR length"),
                            ("knots", "resolution"),
                            ("gone", "no such field"),
                        )
                    )
                ],
            )
        )
        assert [f.code for f in findings] == ["RC002"]
        assert "'gone'" in findings[0].message


def workload(**kw):
    base = dict(
        name="fab",
        flags=frozenset({"engine"}),
        parameters=(),
        runner=lambda request, params: None,
    )
    base.update(kw)
    return SimpleNamespace(**base)


class TestRc005WorkloadFlags:
    def test_known_groups_pass(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        assert list(check_workload_flags(tree, [workload()])) == []

    def test_unknown_group_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_workload_flags(
                tree, [workload(flags=frozenset({"engine", "bogus"}))]
            )
        )
        assert [f.code for f in findings] == ["RC005"]
        assert "'bogus'" in findings[0].message

    def test_parameter_shadowing_a_group_flag_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_workload_flags(
                tree,
                [
                    workload(
                        parameters=(SimpleNamespace(name="jobs"),)
                    )
                ],
            )
        )
        assert [f.code for f in findings] == ["RC005"]
        assert "'jobs'" in findings[0].message

    def test_same_name_without_that_group_is_fine(self, make_tree):
        # merge/check declare a 'format' parameter but not the sink
        # group, so there is no collision to flag.
        tree = make_tree({"m.py": "x = 1\n"})
        assert (
            list(
                check_workload_flags(
                    tree,
                    [
                        workload(
                            flags=frozenset({"engine"}),
                            parameters=(SimpleNamespace(name="format"),),
                        )
                    ],
                )
            )
            == []
        )
