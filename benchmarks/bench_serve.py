"""BENCH-SERVE: a warm duplicate submission is (nearly) free.

One live :mod:`repro.serve` server, one client, the same request
submitted twice:

1. **cold** — empty shared store: the job computes every scenario,
   checkpoints them, and streams the records;
2. **warm** — identical resubmission: the server replays the finished
   job (or serves every scenario from the store), computing nothing.

Asserted claims: the warm submission computes zero scenarios, its
absolute µs per record (connect → last byte) stays within
``MAX_BASELINE_REGRESSION``× of ``benchmarks/BASELINE.json`` (smoke
mode, same host), and its stream is byte-identical to the cold one.
The cold/warm ratio is printed and recorded but not asserted: it
divides compute time by replay time, so a faster cold path shrinks it
while the replay, near its fixed cost, moves less.  This is the service
analogue of ``benchmarks/bench_store.py``'s warm-resweep gate: the
network and protocol layers are allowed to cost something, but never
a recompute.

A second section times closed-loop pairs of half-overlapping cold
jobs on a two-slot server (the shape of ``perfbench``'s
``serve-overlap`` workload): each job computes half its scenarios and
reads half from the store, so per-job fixed cost — store connection,
commits, key hashing, claims — is a large share of its µs per record.
That figure is gated against ``BASELINE.json`` like the warm
duplicate's, so fixed cost per job cannot creep back unnoticed.

A third section times one cold job on a server whose engine pool is
``jobs=4`` against an inline one (``jobs=None``): the streams must be
byte-identical and resumable from an offset on every host, and the
pooled job ``MIN_POOL_SPEEDUP``× faster on hosts with at least 4 CPUs.

Artifacts: ``results/bench_serve.txt``, ``results/bench_serve_overlap.txt``,
``results/bench_serve_pool.txt`` and sections in
``results/BENCH_serve.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from conftest import (
    MAX_BASELINE_REGRESSION,
    baseline_drift,
    save_text,
    scaled,
    update_bench_json,
)

from repro.api import RunRequest
from repro.experiments import render_table
from repro.serve import ServeClient, ServeConfig, start_server

#: Sweep shape (scenarios = 3x the point count).
N_POINTS = scaled(60, 12)
KNOTS = scaled(512, 256)


def _timed_submit(host: str, port: int, request: RunRequest):
    started = time.perf_counter()
    with ServeClient(host, port) as client:
        stream = client.submit(request)
        lines = stream.lines()
    return time.perf_counter() - started, lines, stream


def test_warm_duplicate_submission_beats_cold(artifacts_dir, tmp_path):
    request = RunRequest.make("sweep", points=N_POINTS, knots=KNOTS)
    handle = start_server(
        ServeConfig(store=str(tmp_path / "serve.sqlite"), port=0)
    )
    try:
        t_cold, cold_lines, cold_stream = _timed_submit(
            handle.host, handle.port, request
        )
        t_warm, warm_lines, warm_stream = _timed_submit(
            handle.host, handle.port, request
        )
    finally:
        stats = handle.stop()

    assert cold_stream.dedup == "new"
    assert cold_stream.end is not None
    assert cold_stream.end["computed"] == len(cold_lines)
    # The duplicate replayed the finished job: nothing recomputed.
    assert warm_stream.dedup in ("replay", "inflight")
    assert stats["scenarios_computed"] == len(cold_lines)
    assert warm_lines == cold_lines

    speedup = t_cold / t_warm
    records = len(cold_lines)
    warm_us = t_warm / records * 1e6
    drift, gated = baseline_drift(
        "serve.warm_duplicate", "warm_us_per_record", warm_us
    )
    table = render_table(
        ["path", "seconds", "records/s"],
        [
            [
                "cold submit (compute + checkpoint + stream)",
                f"{t_cold:.2f}",
                f"{records / t_cold:.0f}",
            ],
            [
                "warm duplicate (dedup + replay)",
                f"{t_warm:.2f}",
                f"{records / t_warm:.0f}",
            ],
            ["speedup", f"{speedup:.1f}x", ""],
            ["warm µs/record", f"{warm_us:.0f}", ""],
            ["vs BASELINE.json", f"{drift:.2f}x", "gated" if gated else "reported"],
        ],
    )
    save_text(artifacts_dir, "bench_serve.txt", table)
    update_bench_json(
        artifacts_dir,
        "serve",
        {
            "warm_duplicate": {
                "records": records,
                "cold_s": round(t_cold, 4),
                "warm_s": round(t_warm, 4),
                "warm_us_per_record": round(warm_us, 1),
                "baseline_drift": round(drift, 3),
                "speedup": round(speedup, 2),
            }
        },
    )
    print()
    print(table)

    if gated:
        assert drift <= MAX_BASELINE_REGRESSION, (
            f"warm duplicate takes {warm_us:.0f} µs/record, {drift:.2f}x "
            f"its BASELINE.json figure (limit {MAX_BASELINE_REGRESSION}x)"
        )


# ----------------------------------------------------------------------
# BENCH-SERVE-OVERLAP: closed-loop pairs of half-overlapping cold jobs
# ----------------------------------------------------------------------

#: Fresh Q values per job (a job asks for ``2 * OVERLAP_HALF``, half of
#: them shared with the job before it), rounds of two concurrent jobs,
#: and a low knot count so per-job fixed cost is not drowned out by
#: kernel time.
OVERLAP_HALF = 4
OVERLAP_ROUNDS = scaled(40, 15)
OVERLAP_KNOTS = 256


def _overlap_request(qs: list[float], i: int) -> RunRequest:
    """Job ``i``: Q window ``[iH, iH + 2H)``, half shared with job i-1."""
    h = OVERLAP_HALF
    return RunRequest.family(
        "bound",
        axes={"q": {"grid": qs[i * h : i * h + 2 * h]}},
        defaults={"function": "gaussian1", "knots": OVERLAP_KNOTS},
    )


def test_cold_overlapping_pairs_per_record_cost(artifacts_dir, tmp_path):
    jobs = 2 * OVERLAP_ROUNDS
    qs = [50.0 + 0.5 * n for n in range((jobs + 1) * OVERLAP_HALF)]
    handle = start_server(
        ServeConfig(store=str(tmp_path / "overlap.sqlite"), port=0, workers=2)
    )
    try:
        clients = [ServeClient(handle.host, handle.port) for _ in range(2)]
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                started = time.perf_counter()
                streams = []
                for first in range(0, jobs, 2):
                    # Closed loop: the next pair starts once both ended.
                    pair = [_overlap_request(qs, first + n) for n in (0, 1)]
                    streams += pool.map(
                        lambda client, request: client.run(request),
                        clients,
                        pair,
                    )
                elapsed = time.perf_counter() - started
        finally:
            for client in clients:
                client.close()
    finally:
        stats = handle.stop()

    records = sum(len(lines) for lines in streams)
    assert [len(lines) for lines in streams] == [2 * OVERLAP_HALF] * jobs
    # Every distinct scenario computed exactly once across the pool.
    assert stats["scenarios_computed"] == len(qs)
    assert stats["scenarios_cached"] == records - len(qs)

    us_per_record = elapsed / records * 1e6
    drift, gated = baseline_drift(
        "serve.cold_overlap", "us_per_record", us_per_record
    )
    table = render_table(
        ["path", "value"],
        [
            ["jobs (2 per round, half-overlapping)", f"{jobs}"],
            ["records", f"{records}"],
            ["seconds", f"{elapsed:.2f}"],
            ["µs/record", f"{us_per_record:.0f}"],
            [
                "vs BASELINE.json",
                f"{drift:.2f}x ({'gated' if gated else 'reported'})",
            ],
        ],
    )
    save_text(artifacts_dir, "bench_serve_overlap.txt", table)
    update_bench_json(
        artifacts_dir,
        "serve",
        {
            "cold_overlap": {
                "jobs": jobs,
                "records": records,
                "knots": OVERLAP_KNOTS,
                "seconds": round(elapsed, 4),
                "us_per_record": round(us_per_record, 1),
                "baseline_drift": round(drift, 3),
            }
        },
    )
    print()
    print(table)

    if gated:
        assert drift <= MAX_BASELINE_REGRESSION, (
            f"cold overlapping jobs take {us_per_record:.0f} µs/record, "
            f"{drift:.2f}x their BASELINE.json figure "
            f"(limit {MAX_BASELINE_REGRESSION}x)"
        )


# ----------------------------------------------------------------------
# BENCH-SERVE-POOL: one job's fresh scenarios on the engine pool (--jobs)
# ----------------------------------------------------------------------

#: One-group bound grid: enough scenarios per worker that the
#: per-process context build amortises, heavy enough knots that the
#: kernel work (not protocol overhead) is what the pool parallelises.
POOL_POINTS = scaled(32, 16)
POOL_KNOTS = 8192
#: Engine pool width under test (``ServeConfig.jobs``), and the
#: wall-clock factor a pooled cold submit must beat an inline one
#: (``jobs=None``) by when the host can deliver.
POOL_WORKERS = 4
MIN_POOL_SPEEDUP = 2.0


def _available_cpus() -> int:
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_engine_pool_job_beats_inline_job(artifacts_dir, tmp_path):
    request = RunRequest.family(
        "bound",
        axes={
            "q": {
                "linspace": {
                    "start": 50.0,
                    "stop": 400.0,
                    "points": POOL_POINTS,
                }
            }
        },
        defaults={"function": "gaussian1", "knots": POOL_KNOTS},
    )

    # Two fresh servers over two fresh stores: identical cold work,
    # only the engine pool differs — so the ratio is pure pooling.
    timings = {}
    lines = {}
    for jobs in (None, POOL_WORKERS):
        handle = start_server(
            ServeConfig(
                store=str(tmp_path / f"pool{jobs}.sqlite"), port=0, jobs=jobs
            )
        )
        try:
            elapsed, got, stream = _timed_submit(
                handle.host, handle.port, request
            )
            assert stream.dedup == "new"
            assert stream.end is not None
            assert stream.end["computed"] == POOL_POINTS
            if jobs == POOL_WORKERS:
                # Reconnect/resume leg: a fresh connection resuming at
                # an offset gets exactly the remaining bytes.
                with ServeClient(handle.host, handle.port) as client:
                    tail = client.resume(stream.job, last_record=3).lines()
                assert got[:3] + tail == got
        finally:
            handle.stop()
        timings[jobs] = elapsed
        lines[jobs] = got

    # Byte-identity is unconditional: the pool must never change the
    # stream, whatever it does to the clock.
    assert lines[POOL_WORKERS] == lines[None]

    cpus = _available_cpus()
    speedup = timings[None] / timings[POOL_WORKERS]
    gate = cpus >= POOL_WORKERS
    table = render_table(
        ["path", "seconds", "records/s"],
        [
            [
                "inline (jobs=None)",
                f"{timings[None]:.2f}",
                f"{POOL_POINTS / timings[None]:.0f}",
            ],
            [
                f"engine pool (--jobs {POOL_WORKERS})",
                f"{timings[POOL_WORKERS]:.2f}",
                f"{POOL_POINTS / timings[POOL_WORKERS]:.0f}",
            ],
            [f"speedup ({cpus} cpus)", f"{speedup:.1f}x", ""],
        ],
    )
    save_text(artifacts_dir, "bench_serve_pool.txt", table)
    update_bench_json(
        artifacts_dir,
        "serve",
        {
            "multi_worker": {
                "records": POOL_POINTS,
                "knots": POOL_KNOTS,
                "jobs": POOL_WORKERS,
                "cpus": cpus,
                "solo_s": round(timings[None], 4),
                "pool_s": round(timings[POOL_WORKERS], 4),
                "speedup": round(speedup, 2),
                "gate": "enforced" if gate else f"skipped ({cpus} cpu)",
            }
        },
    )
    print()
    print(table)

    if gate:
        assert speedup >= MIN_POOL_SPEEDUP, (
            f"pooled job only {speedup:.1f}x faster than inline "
            f"(need >= {MIN_POOL_SPEEDUP}x on {cpus} cpus)"
        )
    else:
        print(
            f"NOTE: {cpus} cpu(s) < {POOL_WORKERS}: the "
            f">={MIN_POOL_SPEEDUP}x gate is informational here"
        )
