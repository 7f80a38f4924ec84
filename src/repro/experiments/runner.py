"""One-call regeneration of every paper artifact.

``generate_all()`` is the programmatic equivalent of running the whole
benchmark harness: it produces the Figure 4/5 CSVs, the Figure 2
counterexample, the Theorem 1 validation report and the schedulability
study, returning everything in a single summary object.  The grid
stages run the ``fig4``, ``fig5`` and ``study`` workloads of
:mod:`repro.api` — the same plans the CLI runs — so pass
``max_workers`` to fan Figure 5 and the study out over a worker pool
without changing any artifact byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.fig4 import Fig4Data
from repro.experiments.fig5 import Fig5Data
from repro.experiments.figure2 import Figure2Demo, run_figure2_demo
from repro.experiments.schedulability_study import StudyPoint
from repro.sim.validation import (
    ValidationReport,
    reference_validation_task_set,
    validation_campaign,
)


@dataclass(frozen=True, slots=True)
class ReproductionSummary:
    """Everything ``generate_all`` produced.

    Attributes:
        fig4: Sampled benchmark functions.
        fig5: The Q sweep.
        fig2: The naive-bound counterexample.
        validation: Theorem 1 fuzzing report.
        study: Schedulability acceptance curves.
        csv_paths: Files written under the results directory.
    """

    fig4: Fig4Data
    fig5: Fig5Data
    fig2: Figure2Demo
    validation: ValidationReport
    study: list[StudyPoint]
    csv_paths: tuple[Path, ...]

    @property
    def healthy(self) -> bool:
        """All headline checks in one boolean: Theorem 1 held, the naive
        bound was violated while Algorithm 1 stayed safe, and Algorithm 1
        never exceeded the Eq. 4 state of the art."""
        fig5_ok = all(
            value <= row.state_of_the_art + 1e-9
            for row in self.fig5.rows
            for value in row.algorithm1.values()
        )
        return (
            self.validation.passed
            and self.fig2.naive_is_violated
            and self.fig2.algorithm1_is_safe
            and fig5_ok
        )


def generate_all(
    knots: int = 1024,
    validation_seeds: int = 4,
    study_sets_per_point: int = 15,
    max_workers: int | None = None,
) -> ReproductionSummary:
    """Regenerate every figure and check; returns the combined summary.

    Args:
        knots: Resolution of the synthetic delay functions (lower = faster).
        validation_seeds: Fuzzing seeds for the Theorem 1 campaign.
        study_sets_per_point: Task sets per utilization level of the
            reference study grid (the CLI ``study`` command's, at five
            tasks per set).
        max_workers: Batch-engine pool width for the Figure 5 sweep and
            the schedulability study (``None`` = inline; the artifacts
            are bit-identical for every setting).
    """
    from repro.api import ExecutionOptions, RunRequest, Workbench

    bench = Workbench()
    pooled = ExecutionOptions(jobs=max_workers)
    fig4 = bench.run(RunRequest.make("fig4", knots=knots))
    fig5 = bench.run(RunRequest.make("fig5", pooled, knots=knots))
    study = bench.run(
        RunRequest.make("study", pooled, tasks=5, sets=study_sets_per_point)
    )
    fig2 = run_figure2_demo()
    validation = validation_campaign(
        reference_validation_task_set(q=120.0),
        policy="fp",
        seeds=range(validation_seeds),
        horizon=50_000.0,
    )
    return ReproductionSummary(
        fig4=fig4.payload,
        fig5=fig5.payload,
        fig2=fig2,
        validation=validation,
        study=study.payload,
        csv_paths=tuple(
            Path(path) for path in (*fig4.artifacts, *fig5.artifacts)
        ),
    )
