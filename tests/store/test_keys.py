"""Canonicalization and key derivation: stability, injectivity-in-
practice, fingerprint scoping."""

import math
import os
from pathlib import Path
from types import ModuleType

import pytest

from repro.engine import BoundScenario, StudyScenario
from repro.store import (
    canonical_bytes,
    package_fingerprint,
    scenario_key,
)
from repro.store.keys import _digest_sources


class TestCanonicalBytes:
    def test_deterministic_across_calls(self):
        scenario = BoundScenario(function="gaussian1", q=50.0)
        assert canonical_bytes(scenario) == canonical_bytes(scenario)

    def test_mapping_key_order_is_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_distinguishes_tuple_from_list(self):
        assert canonical_bytes((1, 2)) != canonical_bytes([1, 2])

    def test_distinguishes_dataclass_types(self):
        bound = BoundScenario(function="gaussian1", q=50.0)
        as_dict = {
            "function": "gaussian1",
            "q": 50.0,
            "interpretation": "literal",
            "knots": 2048,
        }
        assert canonical_bytes(bound) != canonical_bytes(as_dict)

    def test_float_exactness(self):
        a = canonical_bytes(0.1 + 0.2)
        b = canonical_bytes(0.3)
        assert a != b  # 0.1+0.2 != 0.3 exactly; keys must not round

    def test_non_finite_floats_are_encoded(self):
        for value in (math.inf, -math.inf, math.nan):
            assert canonical_bytes(value)  # no exception, stable form
        assert canonical_bytes(math.inf) != canonical_bytes(-math.inf)

    def test_nested_structures(self):
        value = {"grid": [(1, 2.5), (3, math.inf)], "name": "x"}
        assert canonical_bytes(value) == canonical_bytes(dict(value))

    def test_rejects_non_canonical_values(self):
        with pytest.raises(ValueError):
            canonical_bytes({1, 2, 3})
        with pytest.raises(ValueError):
            canonical_bytes(object())
        with pytest.raises(ValueError):
            canonical_bytes({1: "non-str key"})

    def test_study_scenario_roundtrip_distinct_seeds(self):
        def scenario(seed):
            return StudyScenario(
                utilization=0.5,
                seed=seed,
                n_tasks=5,
                q_fraction=0.5,
                delay_height=0.05,
                methods=("eq4",),
            )

        assert canonical_bytes(scenario(1)) != canonical_bytes(scenario(2))


class TestScenarioKey:
    def test_is_hex_sha256(self):
        key = scenario_key(BoundScenario(function="gaussian1", q=50.0))
        assert len(key) == 64
        int(key, 16)  # hex

    def test_fingerprint_scopes_the_key_space(self):
        scenario = BoundScenario(function="gaussian1", q=50.0)
        assert scenario_key(scenario, "fp-a") != scenario_key(
            scenario, "fp-b"
        )

    def test_distinct_scenarios_distinct_keys(self):
        keys = {
            scenario_key(BoundScenario(function=name, q=q))
            for name in ("gaussian1", "gaussian2", "bimodal")
            for q in (20.0, 50.0, 100.0)
        }
        assert len(keys) == 9


class TestFingerprints:
    def test_package_fingerprint_is_stable(self):
        assert package_fingerprint("repro") == package_fingerprint("repro")

    def test_package_fingerprint_rejects_plain_modules(self):
        from repro.engine import sweeps

        with pytest.raises(ValueError):
            package_fingerprint(sweeps)


def _rglob_fingerprint(package: ModuleType) -> str:
    """The ``pathlib.rglob`` expression the scandir walk replaced,
    kept as the oracle its digest must equal."""
    root = Path(package.__file__).parent
    return _digest_sources(
        {
            str(source.relative_to(root)): source.read_bytes()
            for source in sorted(root.rglob("*.py"))
        }
    )


class TestPackageFingerprintWalk:
    def test_matches_the_rglob_digest_on_the_real_package(self):
        import repro

        assert package_fingerprint(repro) == _rglob_fingerprint(repro)

    def test_matches_the_rglob_digest_on_a_nested_tree(self, tmp_path):
        root = tmp_path / "pkg"
        files = {
            "__init__.py": b"",
            "core.py": b"X = 1\n",
            "sub/__init__.py": b"",
            "sub/leaf.py": b"Y = 2\n",
            "sub/deeper/__init__.py": b"# deeper\n",
            "sub/deeper/z.py": b"Z = 3\n",
            # Not sources: compiled bytecode and data files stay out.
            "__pycache__/core.cpython-311.pyc": b"\x00bytecode",
            "sub/__pycache__/leaf.cpython-311.pyc": b"\x00bytecode",
            "data.json": b"{}",
            "sub/notes.txt": b"not python",
        }
        for name, content in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        package = ModuleType("pkg")
        package.__file__ = str(root / "__init__.py")

        digest = package_fingerprint(package)
        assert digest == _rglob_fingerprint(package)
        # Every .py file counts — nested ones included.
        (root / "sub" / "deeper" / "z.py").write_bytes(b"Z = 4\n")
        assert package_fingerprint(package) != digest
        assert package_fingerprint(package) == _rglob_fingerprint(package)

    def test_matches_buffered_reads_and_skips_symlinked_directories(
        self, tmp_path
    ):
        root = tmp_path / "pkg"
        outside = tmp_path / "outside"
        for path, content in {
            root / "__init__.py": b"",
            root / "a.py": b"A = 1\n" * 20000,
            root / "nested" / "__init__.py": b"",
            root / "nested" / "deep" / "b.py": "B = 'é'\n".encode(),
            outside / "c.py": b"C = 3\n",
        }.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        (root / "linked").symlink_to(outside, target_is_directory=True)
        package = ModuleType("pkg")
        package.__file__ = str(root / "__init__.py")

        def buffered(directory, prefix, sources):
            # The walk as it read before: a buffered file per source.
            with os.scandir(directory) as entries:
                for entry in entries:
                    name = prefix + entry.name
                    if entry.is_dir(follow_symlinks=False):
                        buffered(entry.path, name + "/", sources)
                    elif entry.name.endswith(".py"):
                        with open(entry.path, "rb") as handle:
                            sources[name] = handle.read()

        reference: dict[str, bytes] = {}
        buffered(root, "", reference)
        assert sorted(reference) == [
            "__init__.py",
            "a.py",
            "nested/__init__.py",
            "nested/deep/b.py",
        ]
        digest = package_fingerprint(package)
        assert digest == _digest_sources(reference)
        # The symlinked directory is not followed.
        (outside / "c.py").write_bytes(b"C = 4\n")
        assert package_fingerprint(package) == digest
