"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure/experiment of the paper (see the
per-experiment index in ``docs/paper_mapping.md``), writes its data under
``results/`` and prints a text rendering.  Run with::

    pytest benchmarks/bench_*.py --benchmark-only -s

**Smoke mode** (``REPRO_BENCH_SMOKE=1``): every benchmark shrinks its
workload (fewer scenarios, lower resolutions) while keeping all of its
assertions.  CI runs the whole suite this way on every push, so a
regression that breaks a perf claim or a qualitative invariant fails a
one-minute job instead of silently rotting until someone runs the full
benchmarks by hand.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

#: Environment variable enabling the reduced "smoke" workloads.
SMOKE_ENV = "REPRO_BENCH_SMOKE"

#: Committed smoke-mode absolute numbers, stamped with the host they
#: were measured on (see :func:`baseline_drift`).
BASELINE_PATH = Path(__file__).resolve().parent / "BASELINE.json"

#: A bench fails against ``BASELINE.json`` only when an absolute number
#: is this many times worse: the shared hosts the baseline comes from
#: run the same code up to 2x apart, so smaller drift is only reported.
MAX_BASELINE_REGRESSION = 3.0


def smoke_mode() -> bool:
    """Whether the reduced CI workloads are requested."""
    return os.environ.get(SMOKE_ENV, "") not in ("", "0")


def scaled(full, smoke):
    """``full`` normally, ``smoke`` under ``REPRO_BENCH_SMOKE=1``."""
    return smoke if smoke_mode() else full


@pytest.fixture(scope="session")
def artifacts_dir() -> Path:
    """Directory for benchmark artifacts (CSV series, ASCII plots)."""
    root = Path(__file__).resolve().parent.parent / "results"
    root.mkdir(parents=True, exist_ok=True)
    return root


def save_text(directory: Path, name: str, content: str) -> Path:
    """Write a text artifact and return its path."""
    path = directory / name
    path.write_text(content + "\n")
    return path


def update_bench_json(directory: Path, name: str, metrics: dict) -> Path:
    """Merge one benchmark's metrics into ``BENCH_<name>.json``.

    The machine-readable companion of the ``.txt`` tables: ops/sec and
    speedup ratios keyed by benchmark section, so the perf trajectory
    can be diffed across PRs.  Each test of a benchmark module merges
    its own section (read-modify-write); every section is stamped with
    the ``mode`` (full / smoke) of the run that produced *it*, so a
    partial smoke re-run can never mislabel numbers measured at full
    scale.

    Args:
        directory: The results directory.
        name: Benchmark family (``engine``, ``campaign``, …).
        metrics: ``{section: {metric: value}}`` to merge.
    """
    path = directory / f"BENCH_{name}.json"
    payload: dict = {"benchmark": name, "sections": {}}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            pass  # regenerate a corrupt artifact from scratch
    payload["benchmark"] = name
    payload.pop("mode", None)  # superseded by the per-section stamp
    mode = "smoke" if smoke_mode() else "full"
    stamped = {
        section: {**values, "mode": mode}
        for section, values in metrics.items()
    }
    payload.setdefault("sections", {}).update(stamped)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def host_stamp() -> dict:
    """What an absolute timing is only comparable on: CPU count and model."""
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return {"nproc": cpus, "cpu_model": model}


def baseline_drift(section: str, metric: str, measured: float) -> tuple[float, bool]:
    """Compare a lower-is-better absolute number with ``BASELINE.json``.

    Returns:
        ``(ratio, gated)``: ``measured`` over the committed value, and
        whether the ratio may fail the bench, which it may only in smoke
        mode (the mode the baseline is measured in) on a host with the
        baseline's CPU count and model.  Elsewhere the drift is reported
        and the bench's own ratio floor is the only gate.
    """
    baseline = json.loads(BASELINE_PATH.read_text())
    ratio = measured / baseline["sections"][section][metric]
    return ratio, smoke_mode() and host_stamp() == baseline["host"]
