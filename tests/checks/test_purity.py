"""Worker-purity checkers (WP001-003) over fabricated families."""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from types import SimpleNamespace

from repro.checks.purity import (
    check_frozen_scenarios,
    check_picklable_callables,
    check_worker_globals,
)


@dataclass(frozen=True)
class FrozenScenario:
    q: float = 1.0


@dataclass
class MutableScenario:
    q: float = 1.0


def top_level_worker(scenario):
    return scenario


def family(scenario_type=FrozenScenario, worker=top_level_worker, **kw):
    base = dict(
        name="fab",
        scenario_type=scenario_type,
        worker=worker,
        decoder=None,
        context_key=None,
    )
    base.update(kw)
    return SimpleNamespace(**base)


class TestWp001Frozen:
    def test_frozen_dataclass_passes(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        assert list(check_frozen_scenarios(tree, [family()])) == []

    def test_mutable_dataclass_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_frozen_scenarios(
                tree, [family(scenario_type=MutableScenario)]
            )
        )
        assert [f.code for f in findings] == ["WP001"]
        assert "MutableScenario" in findings[0].message

    def test_plain_class_is_flagged(self, make_tree):
        class Plain:
            pass

        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_frozen_scenarios(tree, [family(scenario_type=Plain)])
        )
        assert [f.code for f in findings] == ["WP001"]


class TestWp002Picklable:
    def test_top_level_function_passes(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        assert list(check_picklable_callables(tree, [family()])) == []

    def test_lambda_worker_is_flagged(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_picklable_callables(
                tree, [family(worker=lambda s: s)]
            )
        )
        assert [f.code for f in findings] == ["WP002"]

    def test_nested_function_is_flagged(self, make_tree):
        def nested(scenario):
            return scenario

        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_picklable_callables(tree, [family(worker=nested)])
        )
        assert [f.code for f in findings] == ["WP002"]

    def test_every_callable_role_is_checked(self, make_tree):
        tree = make_tree({"m.py": "x = 1\n"})
        findings = list(
            check_picklable_callables(
                tree,
                [
                    family(
                        decoder=lambda record: record,
                        context_key=lambda s: s,
                    )
                ],
            )
        )
        assert [f.code for f in findings] == ["WP002", "WP002"]


class TestWp003Globals:
    def load_worker(self, tmp_path, make_tree, body):
        tree = make_tree({"wpmod.py": body})
        path = tmp_path / "src" / "repro" / "wpmod.py"
        spec = importlib.util.spec_from_file_location("wpmod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return tree, module

    def test_global_mutation_is_flagged(self, tmp_path, make_tree):
        tree, module = self.load_worker(
            tmp_path,
            make_tree,
            "STATE = 0\n"
            "\n"
            "def worker(scenario):\n"
            "    global STATE\n"
            "    STATE += 1\n"
            "    return STATE\n",
        )
        findings = list(
            check_worker_globals(tree, [family(worker=module.worker)])
        )
        assert [(f.code, f.line) for f in findings] == [("WP003", 4)]
        assert "STATE" in findings[0].message

    def test_pure_worker_passes(self, tmp_path, make_tree):
        tree, module = self.load_worker(
            tmp_path,
            make_tree,
            "def worker(scenario):\n    return scenario\n",
        )
        assert (
            list(check_worker_globals(tree, [family(worker=module.worker)]))
            == []
        )

    def test_worker_outside_the_tree_is_skipped(self, make_tree):
        # A worker whose source file is not covered (e.g. a test
        # fabrication) cannot be AST-checked; the rule skips it rather
        # than crash or guess.
        tree = make_tree({"m.py": "x = 1\n"})
        assert list(check_worker_globals(tree, [family()])) == []
