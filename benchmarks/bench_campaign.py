"""BENCH-CAMPAIGN: declarative specs cost (almost) nothing.

A campaign spec covering a Figure-5-shaped grid is compiled by
:func:`repro.campaign.compile_campaign` and the resulting scenarios are
evaluated by the plain engine.  Asserted claims:

1. the compiled stream is *exactly* the hand-coded
   ``q_sweep_scenarios`` stream (same dataclasses, same floats, same
   canonical store bytes);
2. compiling the spec costs **< 5 %** of directly evaluating the same
   scenarios with ``run_batch`` — declarativeness is free at sweep
   scale.

Artifacts: ``results/bench_campaign.txt`` with the timing table and the
machine-readable ``results/BENCH_campaign.json`` (ops/sec, overhead
ratio) for cross-PR perf tracking.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign.py -s
"""

from __future__ import annotations

import time

from conftest import save_text, scaled, update_bench_json

from repro.campaign import compile_campaign
from repro.engine import clear_context_cache, q_sweep_scenarios, run_batch
from repro.engine.sweeps import evaluate_bound_scenario
from repro.experiments import default_q_grid, render_table
from repro.store import canonical_bytes

#: Sweep shape (scenarios = 3x the point count).
N_POINTS = scaled(120, 20)
KNOTS = scaled(512, 128)
#: Keep Q above the heavy near-divergence regime so the run stays short.
Q_MIN = 40.0
#: Compilation passes to average over (single-pass times are at the
#: clock-resolution edge precisely *because* compilation is cheap).
COMPILE_REPEATS = 10
#: Spec compilation must stay below this fraction of the evaluation.
MAX_OVERHEAD = 0.05


def campaign_spec() -> dict:
    return {
        "name": "bench",
        "family": "bound",
        "axes": {
            "q": {
                "logspace": {
                    "start": Q_MIN,
                    "stop": 2000.0,
                    "points": N_POINTS,
                }
            },
            "function": {"grid": ["gaussian1", "gaussian2", "bimodal"]},
        },
        "defaults": {"knots": KNOTS},
    }


def test_spec_compilation_overhead_is_negligible(artifacts_dir):
    spec = campaign_spec()

    started = time.perf_counter()
    for _ in range(COMPILE_REPEATS):
        compiled = compile_campaign(spec)
    t_compile = (time.perf_counter() - started) / COMPILE_REPEATS

    # The compiled stream is the hand-coded stream, bit for bit.
    reference = q_sweep_scenarios(
        default_q_grid(q_min=Q_MIN, points=N_POINTS), knots=KNOTS
    )
    assert compiled.scenarios == reference
    assert [canonical_bytes(s) for s in compiled.scenarios] == [
        canonical_bytes(s) for s in reference
    ]

    clear_context_cache()
    started = time.perf_counter()
    results = run_batch(evaluate_bound_scenario, compiled.scenarios)
    t_run = time.perf_counter() - started
    assert len(results) == len(compiled.scenarios)

    overhead = t_compile / t_run
    table = render_table(
        ["stage", "seconds", "share"],
        [
            [
                f"compile spec ({len(compiled.scenarios)} scenarios)",
                f"{t_compile:.4f}",
                f"{overhead:.2%}",
            ],
            ["evaluate via run_batch", f"{t_run:.2f}", "100%"],
        ],
    )
    save_text(artifacts_dir, "bench_campaign.txt", table)
    update_bench_json(
        artifacts_dir,
        "campaign",
        {
            "spec_compilation": {
                "scenarios": len(compiled.scenarios),
                "compile_s": round(t_compile, 5),
                "run_s": round(t_run, 4),
                "run_ops_per_s": round(len(compiled.scenarios) / t_run, 1),
                "compile_overhead_ratio": round(overhead, 5),
            }
        },
    )
    print()
    print(table)

    assert overhead < MAX_OVERHEAD, (
        f"spec compilation costs {overhead:.1%} of evaluation "
        f"(budget {MAX_OVERHEAD:.0%})"
    )
