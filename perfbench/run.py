"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``src/repro`` beside it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("study", "sweep-resume", "serve-overlap")


def host_stamp() -> dict[str, object]:
    """What a baseline is only valid for."""
    import platform
    from importlib.util import find_spec

    from workloads import nproc

    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": find_spec("numpy") is not None,
    }


def host_warnings(stamp: dict[str, object]) -> list[str]:
    baseline_path = HERE / "baseline.json"
    if not baseline_path.exists():
        return ["no baseline.json: nothing to compare this host against"]
    baseline = json.loads(baseline_path.read_text())["host"]
    return [
        f"host {key}={stamp[key]!r} differs from the baseline's "
        f"{baseline.get(key)!r}: compare only with numbers from this host"
        for key in ("nproc", "cpu_model", "python", "numpy")
        if baseline.get(key) != stamp[key]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs (smoke tests)"
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="add this seed's output digests to perfbench/reference.json",
    )
    args = parser.parse_args(argv)
    # A launcher that started this run in the background may have left
    # SIGINT ignored, and an ignored signal stays ignored in children:
    # the serve workload's server would then ignore the SIGINT that
    # stops it.  A handled signal is reset to its default in children.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {root / 'src' / 'repro'} not found; run from the "
            "root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(root / "src")]
    import workloads

    work = root / ".perfbench"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    references = workloads.References(
        HERE / "reference.json", enabled=not args.smoke, recording=args.record
    )
    run = workloads.Run(
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=workloads.Sizes.of(args.smoke),
        references=references,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record and references.changed and not outcome.problems:
        references.save()

    stamp = host_stamp()
    print(f"workload {args.workload} seed {args.seed} host {json.dumps(stamp)}")
    for line in host_warnings(stamp) + outcome.notes:
        print(f"note: {line}")
    for problem in outcome.problems:
        print(f"OUTPUT CHECK FAILED: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
