"""The post-PR-2 scenario families: simulation validation and EDF studies.

Two further workload shapes join :class:`repro.engine.sweeps.BoundScenario`
and :class:`~repro.engine.sweeps.StudyScenario` in the family registry
(:mod:`repro.engine.registry`):

* :class:`SimScenario` — one *bound-validation* run: generate a task
  set, assign floating-NPR lengths, drive the discrete-event simulator
  (:mod:`repro.sim.simulator`) under the adversarial delay model, and
  compare every job's observed cumulative preemption delay against
  Algorithm 1's static bound.  A sweep of these is Theorem 1 checked at
  campaign scale rather than on a handful of hand-built patterns.
* :class:`EdfStudyScenario` — one task set of an *EDF* acceptance
  study: NPR lengths from the Bertogna-Baruah slack criterion
  (:mod:`repro.npr.qmax_edf`), verdicts from the delay-aware EDF test
  family (:mod:`repro.sched.edf_delay_aware`) — the EDF counterpart of
  the fixed-priority ``study`` family.

Like every family, workers are module-level (picklable), results are
frozen dataclasses (whose record decoder the registry derives, so the
family is fully servable from a :class:`repro.store.ResultStore`), and
scenarios carry their own seeds (results never depend on which pool
worker evaluates them).  Both workers resolve their generated task
set, its delay maxima and the safe-Q vector of their policy through a
:class:`~repro.engine.context.TaskSetKey` (``edf`` for ``edf-study``,
the scenario's ``policy`` for ``sim``), so a grid sweeping
``q_fraction`` over the same seeds generates and analyses each set once
per process and policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.chunking import derive_seed
from repro.engine.context import TaskSetKey, get_context
from repro.sched.edf_delay_aware import EDF_METHODS, edf_delay_aware_verdicts
from repro.sim.release import periodic_releases, sporadic_releases
from repro.sim.simulator import FloatingNPRSimulator, worst_case_delay_model
from repro.sim.validation import validate_simulation

# ----------------------------------------------------------------------
# Bound validation through the simulator (Theorem 1 at sweep scale)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SimScenario:
    """One simulator run validating Algorithm 1's bound.

    Attributes:
        utilization: Target total utilization of the generated set.
        seed: Scenario-owned seed (task set, offsets, release jitter).
        n_tasks: Tasks per generated set.
        q_fraction: Fraction of the maximal safe NPR length to assign.
        delay_height: ``max f_i`` as a fraction of each task's WCET.
        policy: Scheduling policy (``"fp"`` or ``"edf"``); also selects
            the NPR length criterion.
        horizon_factor: Simulated horizon as a multiple of the largest
            generated period.
        sporadic: Randomize inter-arrival times (``False`` = periodic
            with seeded initial offsets).
    """

    utilization: float
    seed: int
    n_tasks: int = 4
    q_fraction: float = 0.5
    delay_height: float = 0.05
    policy: str = "fp"
    horizon_factor: float = 3.0
    sporadic: bool = False


@dataclass(frozen=True, slots=True)
class SimResult:
    """Observed-versus-analytical outcome of one :class:`SimScenario`.

    Attributes:
        utilization: Scenario utilization (grouping key).
        seed: Scenario seed.
        admitted: Whether the generated set admitted an NPR assignment;
            ``False`` means nothing was simulated.
        checked_jobs: Jobs whose observed delay was compared against a
            finite static bound.
        preemptions: Preemptions observed across the whole run.
        max_tightness: Largest observed ``measured / bound`` ratio
            (1.0 = some job reached its bound exactly).
        bound_respected: ``True`` iff no job exceeded its bound —
            Theorem 1's claim, checked operationally.
    """

    utilization: float
    seed: int
    admitted: bool
    checked_jobs: int
    preemptions: int
    max_tightness: float
    bound_respected: bool


def sim_context_key(scenario: SimScenario) -> TaskSetKey:
    """The context key of one sim scenario: its generated set under the
    scenario's own policy, which selects the NPR length criterion."""
    return TaskSetKey.of(scenario, scenario.policy)


def evaluate_sim_scenario(scenario: SimScenario) -> SimResult:
    """Engine worker: simulate one generated task set and validate the
    observed preemption delays against Algorithm 1's bounds."""
    context = get_context(sim_context_key(scenario))
    task_set = context.prepared_task_set(scenario.q_fraction)
    if task_set is None:
        return SimResult(
            utilization=scenario.utilization,
            seed=scenario.seed,
            admitted=False,
            checked_jobs=0,
            preemptions=0,
            max_tightness=0.0,
            bound_respected=True,
        )
    horizon = scenario.horizon_factor * max(t.period for t in task_set)
    # Release randomness comes from a derived stream so it never
    # correlates with the generator draws made under the raw scenario
    # seed (the k-th jitter draw must not equal the k-th task draw).
    release_seed = derive_seed(scenario.seed, 1)
    if scenario.sporadic:
        releases = sporadic_releases(task_set, horizon, seed=release_seed)
    else:
        rng = random.Random(release_seed)
        offsets = {t.name: rng.uniform(0.0, t.period) for t in task_set}
        releases = periodic_releases(task_set, horizon, offsets=offsets)
    simulator = FloatingNPRSimulator(
        task_set,
        policy=scenario.policy,
        delay_model=worst_case_delay_model,
    )
    run = simulator.run(releases, horizon)
    report = validate_simulation(task_set, run)
    return SimResult(
        utilization=scenario.utilization,
        seed=scenario.seed,
        admitted=True,
        checked_jobs=report.checked_jobs,
        preemptions=run.preemption_count(),
        max_tightness=report.max_tightness,
        bound_respected=report.passed,
    )


# ----------------------------------------------------------------------
# EDF acceptance studies (Bertogna-Baruah NPR lengths)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EdfStudyScenario:
    """One generated task set of an EDF acceptance study.

    Attributes:
        utilization: Target total utilization.
        seed: Scenario-owned generator seed.
        n_tasks: Tasks per generated set.
        q_fraction: Fraction of the maximal safe NPR length to assign.
        delay_height: ``max f_i`` as a fraction of each task's WCET.
        methods: EDF delay-aware test methods to run
            (see :data:`repro.sched.EDF_METHODS`).
    """

    utilization: float
    seed: int
    n_tasks: int = 5
    q_fraction: float = 0.5
    delay_height: float = 0.05
    methods: tuple[str, ...] = EDF_METHODS


@dataclass(frozen=True, slots=True)
class EdfStudyResult:
    """Accept/reject outcome of one :class:`EdfStudyScenario`.

    Attributes:
        utilization: Scenario utilization (grouping key).
        seed: Scenario seed.
        admitted: Whether the set admitted an EDF NPR assignment at
            all; ``False`` counts as a rejection for every method.
        accepted: Per-method verdicts, aligned with
            ``scenario.methods``.
    """

    utilization: float
    seed: int
    admitted: bool
    accepted: tuple[bool, ...]


def edf_study_context_key(scenario: EdfStudyScenario) -> TaskSetKey:
    """The context key of one edf-study scenario: its generated set
    under the EDF policy."""
    return TaskSetKey.of(scenario, "edf")


def evaluate_edf_study_scenario(
    scenario: EdfStudyScenario,
) -> EdfStudyResult:
    """Engine worker: run every EDF test against one task set.

    The generated set, its Bertogna-Baruah safe-Q vector and the delay
    maxima come from the shared context; per scenario only the
    ``q_fraction`` scaling and the Q-dependent bounds remain.
    """
    context = get_context(edf_study_context_key(scenario))
    task_set = context.prepared_task_set(scenario.q_fraction)
    if task_set is None:
        return EdfStudyResult(
            utilization=scenario.utilization,
            seed=scenario.seed,
            admitted=False,
            accepted=tuple(False for _ in scenario.methods),
        )
    return EdfStudyResult(
        utilization=scenario.utilization,
        seed=scenario.seed,
        admitted=True,
        accepted=edf_delay_aware_verdicts(
            task_set, scenario.methods, delay_maxima=context.delay_maxima
        ),
    )
