"""What a finished served job keeps in the server's memory.

A server keeps every job it ran, so that a replay, a resume after a
drain and the ``status`` frame's counts work for its whole life.  A
finished job keeps only what those read: its id, state, error, cache
statistics and its lines, compacted once no stream reads them.  This
pins the growth per finished job with :mod:`tracemalloc` over a few
hundred distinct 8-record ``bound`` jobs served in-process.

Bytes per finished job here (Python 3.11): about 0.6 KB, against
6.8 KB when a finished job still held its request, a cancel
``threading.Event``, an asyncio change event and a list of its lines.
The bound leaves room for Python 3.10, whose instance ``__dict__`` is
a few hundred bytes larger than 3.11's and 3.12's inline values, and
for the registry dict's amortized resizes (about 40 B per job).
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.api import RunRequest
from repro.serve import ServeClient, ServeConfig, start_server

#: Retained bytes allowed per finished 8-record job.
MAX_BYTES_PER_JOB = 1500

WARM_JOBS = 20
JOBS = 200


def _job(i: int) -> RunRequest:
    """Distinct job ``i``: eight Q values no other job asks for."""
    return RunRequest.family(
        "bound",
        axes={
            "q": {"grid": [50.0 + 0.5 * i + 0.01 * n for n in range(8)]},
            "function": {"grid": ["gaussian1"]},
        },
        defaults={"knots": 48},
        name="retained",
    )


def test_a_finished_job_keeps_little_and_still_replays(tmp_path):
    handle = start_server(ServeConfig(store=str(tmp_path / "s.sqlite"), workers=1))
    try:
        with ServeClient(handle.host, handle.port) as client:
            first = client.run(_job(0))
            assert len(first) == 8
            # Warm-up: imports, contexts, statement caches, buffers.
            for i in range(1, WARM_JOBS):
                client.run(_job(i))
            gc.collect()
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            for i in range(WARM_JOBS, WARM_JOBS + JOBS):
                assert len(client.run(_job(i))) == 8
            gc.collect()
            per_job = (tracemalloc.get_traced_memory()[0] - before) / JOBS
            # A compacted job replays its lines byte for byte.
            replay = client.submit(_job(0))
            assert replay.dedup == "replay"
            assert replay.lines() == first
    finally:
        tracemalloc.stop()
        handle.stop()
    assert per_job <= MAX_BYTES_PER_JOB, (
        f"a finished job retains {per_job:.0f} B "
        f"(limit {MAX_BYTES_PER_JOB} B)"
    )
