"""BENCH-ENGINE: batched engine throughput vs the sequential baselines.

Five comparisons with the claims *asserted* so a regression fails the
benchmark run instead of silently shipping:

1. **Engine vs the single-shot API path** on a ≥1000-scenario
   delay-bound sweep.  The baseline runs the full public
   single-scenario recipe per scenario — build the benchmark function,
   run both bounds — which is what a caller without a batch API writes.
   The engine amortises function construction across the batch via the
   shared-artifact context layer and must win clearly.
2. **Engine vs a hand-hoisted loop.**  The strongest sequential
   baseline: functions hoisted out of the loop by hand (what the
   pre-engine ``generate_fig5`` did internally).  The engine cannot
   beat this on one core — the point asserted is that its batching
   overhead is *negligible* (within a small factor), i.e. the engine's
   conveniences (chunking, sinks, pooling) come for free.
3. **Grouped context evaluation vs per-scenario rebuild** on a
   fig5-shaped acceptance grid (many ``q_fraction`` points per
   generated task set).  The ungrouped baseline re-derives the task
   set, its Lehoczky/safe-Q curves and delay maxima for every scenario
   (the pre-context worker); the grouped path resolves them once per
   :class:`repro.engine.context.TaskSetKey`.  Each path is timed as
   the best of ``CONTEXT_REPS`` runs, the context memo cleared before
   every grouped run.  Must be ≥2x faster and bit-identical, and its
   absolute µs per scenario must stay within 3x of
   ``benchmarks/BASELINE.json``.
4. **Algorithm 1's kernel on a grouped bound grid**: the per-scenario
   path over warmed benchmark functions must be bit-identical to the
   ungrouped run, and its absolute µs per scenario must stay within
   3x of ``benchmarks/BASELINE.json``.  It is timed as the best of
   ``KERNEL_REPS`` passes, interleaved with the ungrouped reference
   runs.
5. **Context build**: the absolute µs to build one ``study`` task-set
   context (6 tasks, 256-knot delay functions, blocking tolerances and
   delay maxima) and one 1024-knot two-bell Figure 4 context must stay
   within 3x of ``benchmarks/BASELINE.json``.

All comparisons also assert bit-identical results.

Artifacts: ``results/bench_engine.txt`` with the timing table and the
machine-readable ``results/BENCH_engine.json`` (ops/sec, speedup
ratios) for cross-PR perf tracking.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -s
"""

from __future__ import annotations

import time

from conftest import (
    MAX_BASELINE_REGRESSION,
    baseline_drift,
    save_text,
    scaled,
    update_bench_json,
)

from repro.core.bounds import compare_bounds
from repro.engine import (
    StudyScenario,
    clear_context_cache,
    evaluate_bound_scenario,
    evaluate_study_scenario,
    q_sweep_scenarios,
    run_batch,
)
from repro.engine.context import BenchmarkKey, TaskSetKey, build_context
from repro.engine.sweeps import (
    StudyResult,
    prepared_task_set,
    study_context_key,
)
from repro.experiments import default_q_grid, render_table
from repro.experiments.functions_fig4 import FIG4_MAX, fig4_delay_function
from repro.sched.crpd_rta import METHODS, delay_aware_rta

#: Sweep shape: 350 Q points x 3 functions = 1050 scenarios (>= 1000);
#: smoke mode shrinks the grid but keeps every assertion.
N_POINTS = scaled(350, 120)
KNOTS = scaled(512, 256)
MIN_SCENARIOS = scaled(1000, 300)
#: Keep Q above the heavy near-divergence regime so the run stays short.
Q_MIN = 40.0


#: Allowed engine overhead relative to the hand-hoisted loop (the
#: engine does strictly more bookkeeping; it must stay in the noise).
MAX_OVERHEAD = scaled(1.25, 1.5)
#: Repetitions for the tight hoisted-vs-engine comparison; best-of-N
#: wall clock absorbs scheduler hiccups on shared machines.
TIMING_REPS = scaled(2, 1)

#: Shape of the fig5-shaped acceptance grid: many q_fraction points per
#: generated task set, fraction-major so the task-set groups interleave
#: in the stream (the worst case for locality, the case grouping fixes).
GRID_UTILIZATIONS = scaled([0.5, 0.6, 0.7], [0.5, 0.65])
GRID_SEEDS = scaled(5, 3)
GRID_Q_FRACTIONS = scaled(6, 4)
#: The context layer must at least halve the grid's wall clock.
MIN_GROUPED_SPEEDUP = 2.0

#: Task-set contexts timed per rep: the built-in study's shape (6 tasks
#: of 256-knot bell-shaped f_i), ``CONTEXT_SEEDS`` sets per utilization.
CONTEXT_UTILIZATIONS = (0.3, 0.5, 0.65, 0.8, 0.9)
CONTEXT_SEEDS = scaled(15, 5)
#: Best-of reps of every context timing.
CONTEXT_REPS = scaled(5, 3)
#: Best-of passes of the kernel timing: one smoke pass is about 40 ms,
#: and single smoke passes of one tree spread about 2x on a 2-CPU host.
KERNEL_REPS = scaled(3, 7)


def _best_of(reps, fn, *, before=None):
    """Best wall-clock over ``reps`` runs of ``fn`` plus its last result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        if before is not None:
            before()
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _sequential_single_shot(scenarios):
    """The single-shot API path: every scenario is fully self-contained
    (function built per scenario, as a caller without a batch API would)."""
    results = []
    for s in scenarios:
        f = fig4_delay_function(s.function, s.interpretation, s.knots)
        comparison = compare_bounds(f, s.q)
        results.append(
            (
                s.function,
                s.q,
                comparison.algorithm1.total_delay,
                comparison.state_of_the_art.total_delay,
            )
        )
    return results


def _sequential_hoisted(scenarios):
    """The strongest sequential baseline: functions hoisted by hand out
    of the loop — what the pre-engine ``generate_fig5`` did internally."""
    functions = {
        key: fig4_delay_function(*key)
        for key in {(s.function, s.interpretation, s.knots) for s in scenarios}
    }
    results = []
    for s in scenarios:
        f = functions[(s.function, s.interpretation, s.knots)]
        comparison = compare_bounds(f, s.q)
        results.append(
            (
                s.function,
                s.q,
                comparison.algorithm1.total_delay,
                comparison.state_of_the_art.total_delay,
            )
        )
    return results


def test_engine_vs_sequential_baselines(artifacts_dir):
    qs = default_q_grid(q_min=Q_MIN, points=N_POINTS)
    scenarios = q_sweep_scenarios(qs, knots=KNOTS)
    assert len(scenarios) >= MIN_SCENARIOS

    # Single run suffices for the single-shot path: the margin is large.
    started = time.perf_counter()
    single_shot = _sequential_single_shot(scenarios)
    t_single_shot = time.perf_counter() - started

    # The hoisted-vs-engine comparison is tight, so take best-of-N with
    # the engine's context memo cleared before each rep (cold function
    # construction is charged to both paths alike).
    t_hoisted, hoisted = _best_of(
        TIMING_REPS, lambda: _sequential_hoisted(scenarios)
    )
    t_engine, batched = _best_of(
        TIMING_REPS,
        lambda: run_batch(evaluate_bound_scenario, scenarios),
        before=clear_context_cache,  # engine builds its functions itself
    )

    # Bit-identical results across all three paths.
    assert single_shot == hoisted
    assert len(batched) == len(single_shot)
    for expected, result in zip(single_shot, batched):
        assert (
            result.function,
            result.q,
            result.algorithm1,
            result.state_of_the_art,
        ) == expected

    table = render_table(
        ["path", "seconds", "scenarios/s"],
        [
            [
                "sequential single-shot API",
                f"{t_single_shot:.2f}",
                f"{len(scenarios) / t_single_shot:.0f}",
            ],
            [
                "sequential hand-hoisted loop",
                f"{t_hoisted:.2f}",
                f"{len(scenarios) / t_hoisted:.0f}",
            ],
            [
                "batch engine (inline)",
                f"{t_engine:.2f}",
                f"{len(scenarios) / t_engine:.0f}",
            ],
            ["speedup vs single-shot", f"{t_single_shot / t_engine:.1f}x", ""],
            ["overhead vs hoisted", f"{t_engine / t_hoisted:.2f}x", ""],
        ],
    )
    save_text(artifacts_dir, "bench_engine.txt", table)
    update_bench_json(
        artifacts_dir,
        "engine",
        {
            "engine_vs_sequential": {
                "scenarios": len(scenarios),
                "single_shot_s": round(t_single_shot, 4),
                "hoisted_s": round(t_hoisted, 4),
                "engine_s": round(t_engine, 4),
                "engine_ops_per_s": round(len(scenarios) / t_engine, 1),
                "speedup_vs_single_shot": round(t_single_shot / t_engine, 2),
                "overhead_vs_hoisted": round(t_engine / t_hoisted, 3),
            }
        },
    )
    print()
    print(table)

    # The batched path beats the single-shot path on >= 1000 scenarios...
    assert t_engine < t_single_shot, (
        f"engine ({t_engine:.2f}s) slower than single-shot "
        f"({t_single_shot:.2f}s)"
    )
    # ...and costs no more than noise over the best hand-written loop.
    assert t_engine < MAX_OVERHEAD * t_hoisted, (
        f"engine ({t_engine:.2f}s) exceeds {MAX_OVERHEAD}x the hoisted "
        f"loop ({t_hoisted:.2f}s)"
    )


def _uncontexted_study(scenario: StudyScenario) -> StudyResult:
    """The pre-context ``study`` worker: every scenario re-derives its
    task set, safe-Q curves and delay maxima from scratch (what
    ``evaluate_study_scenario`` did before the context layer)."""
    task_set = prepared_task_set(
        scenario.n_tasks,
        scenario.utilization,
        seed=scenario.seed,
        q_fraction=scenario.q_fraction,
        delay_height=scenario.delay_height,
    )
    if task_set is None:
        return StudyResult(
            utilization=scenario.utilization,
            seed=scenario.seed,
            admitted=False,
            accepted=tuple(False for _ in scenario.methods),
        )
    return StudyResult(
        utilization=scenario.utilization,
        seed=scenario.seed,
        admitted=True,
        accepted=tuple(
            delay_aware_rta(task_set, method).schedulable
            for method in scenario.methods
        ),
    )


def test_grouped_context_beats_ungrouped_rebuild(artifacts_dir):
    """Shared-artifact contexts must give ≥2x on a multi-q-per-task-set
    grid, with bit-identical results, and stay within 3x of the
    committed absolute µs per scenario."""
    # Fraction-major stream: all task sets at fraction[0], then
    # fraction[1], ... — the fig5 shape, where group members interleave.
    fractions = [
        (k + 1) / GRID_Q_FRACTIONS for k in range(GRID_Q_FRACTIONS)
    ]
    scenarios = [
        StudyScenario(
            utilization=utilization,
            seed=1000 + seed,
            n_tasks=5,
            q_fraction=fraction,
            delay_height=0.05,
            methods=METHODS,
        )
        for fraction in fractions
        for utilization in GRID_UTILIZATIONS
        for seed in range(GRID_SEEDS)
    ]
    groups = len(GRID_UTILIZATIONS) * GRID_SEEDS

    # Both paths best of CONTEXT_REPS, their reps interleaved so a slow
    # spell of the host slows both: one ~30 ms run of each moved the
    # ratio across the floor on a 2-CPU host.
    t_ungrouped = t_grouped = float("inf")
    for _ in range(CONTEXT_REPS):
        started = time.perf_counter()
        ungrouped = [_uncontexted_study(s) for s in scenarios]
        t_ungrouped = min(t_ungrouped, time.perf_counter() - started)
        clear_context_cache()  # every rep builds its contexts
        started = time.perf_counter()
        grouped = run_batch(
            evaluate_study_scenario, scenarios, group_by=study_context_key
        )
        t_grouped = min(t_grouped, time.perf_counter() - started)

    assert grouped == ungrouped  # bit-identical verdicts
    speedup = t_ungrouped / t_grouped
    grouped_us = t_grouped / len(scenarios) * 1e6
    drift, gated = baseline_drift(
        "engine.grouped_context", "grouped_us_per_scenario", grouped_us
    )

    table = render_table(
        ["path", "seconds", "scenarios/s"],
        [
            [
                "ungrouped (rebuild per scenario)",
                f"{t_ungrouped:.2f}",
                f"{len(scenarios) / t_ungrouped:.0f}",
            ],
            [
                "grouped (shared TaskSetContext)",
                f"{t_grouped:.2f}",
                f"{len(scenarios) / t_grouped:.0f}",
            ],
            ["speedup", f"{speedup:.1f}x", ""],
            ["task-set groups", groups, ""],
            ["scenarios per group", len(scenarios) // groups, ""],
            ["grouped µs/scenario", f"{grouped_us:.0f}", ""],
            ["vs BASELINE.json", f"{drift:.2f}x", "gated" if gated else "reported"],
        ],
    )
    save_text(artifacts_dir, "bench_engine_grouped.txt", table)
    update_bench_json(
        artifacts_dir,
        "engine",
        {
            "grouped_vs_ungrouped": {
                "scenarios": len(scenarios),
                "groups": groups,
                "ungrouped_s": round(t_ungrouped, 4),
                "grouped_s": round(t_grouped, 4),
                "grouped_ops_per_s": round(len(scenarios) / t_grouped, 1),
                "grouped_us_per_scenario": round(grouped_us, 1),
                "baseline_drift": round(drift, 3),
                "speedup": round(speedup, 2),
            }
        },
    )
    print()
    print(table)

    if gated:
        assert drift <= MAX_BASELINE_REGRESSION, (
            f"grouped evaluation takes {grouped_us:.0f} µs/scenario, "
            f"{drift:.2f}x its BASELINE.json figure "
            f"(limit {MAX_BASELINE_REGRESSION}x)"
        )
    assert speedup >= MIN_GROUPED_SPEEDUP, (
        f"grouped evaluation ({t_grouped:.2f}s) is only {speedup:.2f}x "
        f"faster than per-scenario rebuild ({t_ungrouped:.2f}s); "
        f"the context layer must deliver >= {MIN_GROUPED_SPEEDUP}x"
    )


def test_kernel_on_grouped_grid_within_baseline(artifacts_dir):
    """The default per-scenario path on a large grouped bound grid must
    be bit-identical to the ungrouped run and stay within 3x of its
    committed absolute µs per scenario.

    Every context group is warmed first, so the timing is Algorithm 1
    and Eq. 4 per scenario, not function construction."""
    from repro.engine.sweeps import bound_context_key

    qs = default_q_grid(q_min=Q_MIN, points=N_POINTS)
    scenarios = q_sweep_scenarios(qs, knots=KNOTS)
    assert len(scenarios) >= MIN_SCENARIOS

    run_batch(
        evaluate_bound_scenario,
        q_sweep_scenarios(qs[:1], knots=KNOTS),
        group_by=bound_context_key,
    )
    # An ungrouped reference run follows every timed pass and spreads
    # the passes out: a slow spell of the host that covers one pass
    # need not cover the next, and the best pass escapes it.
    t_kernel = float("inf")
    for _ in range(KERNEL_REPS):
        started = time.perf_counter()
        grouped = run_batch(
            evaluate_bound_scenario, scenarios, group_by=bound_context_key
        )
        t_kernel = min(t_kernel, time.perf_counter() - started)
        assert grouped == run_batch(evaluate_bound_scenario, scenarios)
    kernel_us = t_kernel / len(scenarios) * 1e6
    drift, gated = baseline_drift(
        "engine.kernel", "kernel_us_per_scenario", kernel_us
    )

    table = render_table(
        ["path", "seconds", "scenarios/s"],
        [
            [
                "per-scenario kernel (grouped)",
                f"{t_kernel:.2f}",
                f"{len(scenarios) / t_kernel:.0f}",
            ],
            ["µs/scenario", f"{kernel_us:.0f}", ""],
            ["vs BASELINE.json", f"{drift:.2f}x", "gated" if gated else "reported"],
        ],
    )
    save_text(artifacts_dir, "bench_engine_kernel.txt", table)
    update_bench_json(
        artifacts_dir,
        "engine",
        {
            "kernel": {
                "scenarios": len(scenarios),
                "kernel_s": round(t_kernel, 4),
                "kernel_ops_per_s": round(len(scenarios) / t_kernel, 1),
                "kernel_us_per_scenario": round(kernel_us, 1),
                "baseline_drift": round(drift, 3),
            }
        },
    )
    print()
    print(table)

    if gated:
        assert drift <= MAX_BASELINE_REGRESSION, (
            f"the kernel takes {kernel_us:.0f} µs/scenario, {drift:.2f}x "
            f"its BASELINE.json figure (limit {MAX_BASELINE_REGRESSION}x)"
        )


def test_context_build_within_baseline(artifacts_dir):
    """One ``study`` task-set context and one 1024-knot two-bell Figure 4
    context, built from scratch, must each stay within 3x of their
    committed absolute µs per context."""
    keys = [
        TaskSetKey(6, utilization, 2012 + seed, 0.05, "fp")
        for utilization in CONTEXT_UTILIZATIONS
        for seed in range(CONTEXT_SEEDS)
    ]
    t_study, contexts = _best_of(CONTEXT_REPS, lambda: [build_context(k) for k in keys])
    bimodal = BenchmarkKey("bimodal", "literal", 1024)
    t_bimodal, context = _best_of(CONTEXT_REPS, lambda: build_context(bimodal))

    assert all(c.task_set is not None and c.delay_maxima for c in contexts)
    assert context.function_max == FIG4_MAX
    study_us = t_study / len(keys) * 1e6
    bimodal_us = t_bimodal * 1e6
    section = "engine.context_build"
    study_drift, gated = baseline_drift(section, "study_us_per_context", study_us)
    bimodal_drift, _ = baseline_drift(section, "bimodal_us_per_context", bimodal_us)

    table = render_table(
        ["context", "µs/context", "vs BASELINE.json"],
        [
            ["study task set (6 x 256 knots)", f"{study_us:.0f}", f"{study_drift:.2f}x"],
            ["bimodal, 1024 knots", f"{bimodal_us:.0f}", f"{bimodal_drift:.2f}x"],
            ["baseline", "", "gated" if gated else "reported"],
        ],
    )
    save_text(artifacts_dir, "bench_engine_context.txt", table)
    update_bench_json(
        artifacts_dir,
        "engine",
        {
            "context_build": {
                "study_contexts": len(keys),
                "study_us_per_context": round(study_us, 1),
                "bimodal_us_per_context": round(bimodal_us, 1),
                "study_baseline_drift": round(study_drift, 3),
                "bimodal_baseline_drift": round(bimodal_drift, 3),
            }
        },
    )
    print()
    print(table)

    if gated:
        for name, measured, drift in (
            ("a study task-set context", study_us, study_drift),
            ("the bimodal context", bimodal_us, bimodal_drift),
        ):
            assert drift <= MAX_BASELINE_REGRESSION, (
                f"{name} takes {measured:.0f} µs to build, {drift:.2f}x its "
                f"BASELINE.json figure (limit {MAX_BASELINE_REGRESSION}x)"
            )

