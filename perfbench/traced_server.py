"""``python -m repro serve`` with the per-layer spans installed.

Usage::

    PYTHONPATH=src python3 perfbench/traced_server.py --trace-dir DIR serve ...

Everything after ``--trace-dir DIR`` is passed to the ``repro`` CLI.
When the server stops (SIGINT), the server process's span totals are
written to ``DIR/server.json``; each shard sub-run writes its own file
beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-dir":
        print(__doc__, file=sys.stderr)
        return 2
    trace_dir = Path(argv[1])
    tracer = tracing.Tracer()
    tracing.install_server_patches(tracer, trace_dir)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        tracing.dump(tracer, trace_dir / "server.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
