"""Worker purity: registration rejects a mutable scenario dataclass and
callables that do not pickle (formerly rules WP001/WP002); the static
rule WP003 flags workers that rebind module globals."""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass

import pytest

from repro.checks.purity import check_worker_globals
from repro.engine.registry import ScenarioFamily, register_family


@dataclass(frozen=True)
class FrozenScenario:
    q: float = 1.0


@dataclass
class MutableScenario:
    q: float = 1.0


def top_level_worker(scenario: FrozenScenario) -> FrozenScenario:
    return scenario


def family(scenario_type=FrozenScenario, worker=top_level_worker, **kw):
    base = dict(
        name="fab",
        scenario_type=scenario_type,
        worker=worker,
        summary="a fabricated family",
    )
    base.update(kw)
    return ScenarioFamily(**base)


@pytest.mark.usefixtures("scratch_registries")
class TestWp001Frozen:
    def test_frozen_dataclass_passes(self):
        register_family(family())

    def test_mutable_dataclass_is_flagged(self):
        with pytest.raises(ValueError, match="MutableScenario"):
            register_family(family(scenario_type=MutableScenario))

    def test_plain_class_is_flagged(self):
        class Plain:
            pass

        with pytest.raises(ValueError, match="'Plain'.*frozen dataclass"):
            register_family(family(scenario_type=Plain))


@pytest.mark.usefixtures("scratch_registries")
class TestWp002Picklable:
    def test_top_level_function_passes(self):
        register_family(family())

    def test_lambda_worker_is_flagged(self):
        with pytest.raises(ValueError, match="worker .* not importable"):
            register_family(family(worker=lambda s: s))

    def test_nested_function_is_flagged(self):
        def nested(scenario):
            return scenario

        with pytest.raises(ValueError, match="not importable"):
            register_family(family(worker=nested))

    def test_every_callable_role_is_checked(self):
        for role in ("worker", "context_key"):
            with pytest.raises(ValueError, match=f"^{role} of family"):
                register_family(family(**{role: lambda value: value}))


class TestWp003Globals:
    def load_worker(self, tmp_path, make_tree, body):
        tree = make_tree({"wpmod.py": body})
        path = tmp_path / "src" / "repro" / "wpmod.py"
        # Named after its place in the tree, as a package module is.
        spec = importlib.util.spec_from_file_location("repro.wpmod", path)
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
