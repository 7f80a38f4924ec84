"""Smoke tests of the benchmark itself.

Run from the root of the checkout::

    python3 -m pytest perfbench/smoke_check.py -q

Each workload runs once plain and once traced on tiny inputs; the
tests assert that every metric ``BENCHMARK.json`` names is printed with
its unit and that the output checks pass.  The file name keeps it out
of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in SPEC["workloads"]]
)
def test_every_metric_printed_and_outputs_correct(
    workload: str, trace: int
) -> None:
    done = run(
        ROOT,
        "--workload", workload,
        "--seed", "3",
        "--seconds", "1",
        "--trace", str(trace),
        "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    table = {
        line.split()[0]: line.split()[-1]
        for line in done.stdout.splitlines()[:-1]
        if line.strip()
    }
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float))
        assert table.get(metric["name"]) == metric["unit"], metric["name"]
    if not trace:
        assert all(
            result["metrics"][metric["name"]]["value"] > 0
            for metric in wanted
        )


def test_refuses_without_the_program(tmp_path: Path) -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run(
        tmp_path,
        "--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
