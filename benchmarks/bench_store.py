"""BENCH-STORE: the persistent result cache makes re-sweeps (nearly)
free.

One delay-bound sweep is evaluated twice through
:func:`repro.engine.run_cached_batch` against the same
:class:`repro.store.ResultStore`:

1. **cold** — empty store, every scenario computed and checkpointed;
2. **warm** — same sweep again, every scenario served from disk.

Asserted claims (regressions fail the run instead of silently rotting):
the warm pass recomputes nothing, its absolute µs per scenario stays
within ``MAX_BASELINE_REGRESSION``× of ``benchmarks/BASELINE.json``
(smoke mode, same host), it is at least ``MIN_SPEEDUP``× faster than
the cold pass, and both its decoded results *and* its emitted JSONL
bytes are identical to the cold pass's.

Artifacts: ``results/bench_store.txt`` with the timing table and a
section in ``results/BENCH_store.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -s
"""

from __future__ import annotations

import gc
import time

from conftest import (
    MAX_BASELINE_REGRESSION,
    baseline_drift,
    save_text,
    scaled,
    update_bench_json,
)

from repro.engine import (
    JsonlSink,
    clear_context_cache,
    evaluate_bound_scenario,
    get_family,
    q_sweep_scenarios,
    run_cached_batch,
)
from repro.experiments import default_q_grid, render_table
from repro.store import ResultStore, package_fingerprint

#: Sweep shape (scenarios = 3x the point count).
N_POINTS = scaled(150, 50)
KNOTS = scaled(512, 256)
#: Keep Q above the heavy near-divergence regime so the run stays short.
Q_MIN = 40.0
#: A warm re-sweep only pays store lookups + decoding.  Its absolute
#: µs per scenario is gated against ``BASELINE.json``; this floor on
#: the cold/warm ratio is about half the measured smoke median (4.7x,
#: range 3.2-6.7x over 7 runs on a 2-CPU Xeon).  The ratio divides
#: compute time by store-read time, so a faster kernel shrinks it.
MIN_SPEEDUP = 2.0


def test_warm_resweep_beats_cold_and_is_identical(artifacts_dir, tmp_path):
    qs = default_q_grid(q_min=Q_MIN, points=N_POINTS)
    scenarios = q_sweep_scenarios(qs, knots=KNOTS)
    store = ResultStore(
        tmp_path / "bench.sqlite",
        fingerprint=package_fingerprint("repro"),
    )

    def sweep(out_name: str):
        with JsonlSink(tmp_path / out_name) as sink:
            return run_cached_batch(
                evaluate_bound_scenario,
                scenarios,
                store,
                sink=sink,
                decode=get_family("bound").decoder,
            )

    # Cold: empty store, caches cleared — everything is computed.
    clear_context_cache()
    started = time.perf_counter()
    cold = sweep("cold.jsonl")
    t_cold = time.perf_counter() - started
    assert cold.computed == len(scenarios)
    assert cold.cached == 0

    # Warm: same sweep, same store — everything is served from disk.
    # The sweep is short enough that one cyclic-GC pass landing in it
    # would double its time, so it runs from a collected heap with GC
    # off.
    clear_context_cache()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        warm = sweep("warm.jsonl")
        t_warm = time.perf_counter() - started
    finally:
        gc.enable()
    assert warm.computed == 0
    assert warm.cached == len(scenarios)

    # Bit-identical: decoded results and emitted bytes.
    assert warm.results == cold.results
    cold_bytes = (tmp_path / "cold.jsonl").read_bytes()
    warm_bytes = (tmp_path / "warm.jsonl").read_bytes()
    assert warm_bytes == cold_bytes

    speedup = t_cold / t_warm
    warm_us = t_warm / len(scenarios) * 1e6
    drift, gated = baseline_drift("store.warm", "warm_us_per_scenario", warm_us)
    table = render_table(
        ["path", "seconds", "scenarios/s"],
        [
            [
                "cold sweep (compute + checkpoint)",
                f"{t_cold:.2f}",
                f"{len(scenarios) / t_cold:.0f}",
            ],
            [
                "warm re-sweep (store only)",
                f"{t_warm:.2f}",
                f"{len(scenarios) / t_warm:.0f}",
            ],
            ["speedup", f"{speedup:.1f}x", ""],
            ["warm µs/scenario", f"{warm_us:.0f}", ""],
            ["vs BASELINE.json", f"{drift:.2f}x", "gated" if gated else "reported"],
        ],
    )
    save_text(artifacts_dir, "bench_store.txt", table)
    update_bench_json(
        artifacts_dir,
        "store",
        {
            "warm_resweep": {
                "scenarios": len(scenarios),
                "cold_s": round(t_cold, 4),
                "warm_s": round(t_warm, 4),
                "warm_us_per_scenario": round(warm_us, 1),
                "baseline_drift": round(drift, 3),
                "speedup": round(speedup, 2),
            }
        },
    )
    print()
    print(table)

    store.close()
    if gated:
        assert drift <= MAX_BASELINE_REGRESSION, (
            f"warm re-sweep takes {warm_us:.0f} µs/scenario, {drift:.2f}x "
            f"its BASELINE.json figure (limit {MAX_BASELINE_REGRESSION}x)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"warm re-sweep only {speedup:.1f}x faster than cold "
        f"(need >= {MIN_SPEEDUP}x)"
    )
