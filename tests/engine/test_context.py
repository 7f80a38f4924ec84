"""Tests for the shared-artifact context layer and grouped evaluation.

Three claims are locked in here:

1. **Artifact fidelity** — every field of a :class:`TaskSetContext` or
   :class:`BenchmarkContext` equals the value the single-shot functions
   produce, a key builds only what it names, and the context-served
   workers are bit-identical to the pre-context per-scenario recipes.
2. **Plan correctness** — :func:`grouped_chunk_plan` is a pure
   permutation-free partition: every index exactly once, no chunk mixes
   two groups, deterministic.
3. **Engine equivalence** — ``run_batch(..., group_by=...)`` (inline,
   thread pool, process pool; with and without a store) emits the same
   ordered results and the same sink bytes as the ungrouped path.
"""

import pickle

import pytest

from repro.engine import (
    BenchmarkContext,
    BenchmarkKey,
    BoundScenario,
    EdfStudyScenario,
    JsonlSink,
    SimScenario,
    StudyScenario,
    TaskSetContext,
    TaskSetKey,
    WorkerError,
    build_context,
    clear_context_cache,
    evaluate_bound_scenario,
    evaluate_edf_study_scenario,
    evaluate_sim_scenario,
    evaluate_study_scenario,
    get_family,
    grouped_chunk_plan,
    run_batch,
    run_cached_batch,
)
from repro.engine.families import edf_study_context_key, sim_context_key
from repro.engine.sweeps import (
    benchmark_function,
    bound_context_key,
    prepared_task_set,
    study_context_key,
)
from repro.npr import (
    edf_max_npr_lengths,
    fp_max_npr_lengths,
)
from repro.sched import delay_aware_rta
from repro.sched.edf_delay_aware import EDF_METHODS, edf_delay_aware_verdicts
from repro.tasks import gaussian_delay_factory, generate_task_set

METHODS = ("oblivious", "busquets", "petters", "eq4", "algorithm1")


def _task_sets_equal(left, right) -> bool:
    """Field-exact task-set equality (delay functions by value)."""
    if left is None or right is None:
        return left is right
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.name, a.wcet, a.period, a.deadline, a.npr_length, a.priority) != (
            b.name,
            b.wcet,
            b.period,
            b.deadline,
            b.npr_length,
            b.priority,
        ):
            return False
        fa = None if a.delay_function is None else a.delay_function.function
        fb = None if b.delay_function is None else b.delay_function.function
        if fa != fb:
            return False
    return True


def _base_set(n_tasks, utilization, seed, delay_height):
    factory = gaussian_delay_factory(relative_height=delay_height)
    return generate_task_set(
        n_tasks, utilization, seed=seed, delay_function_factory=factory
    ).rate_monotonic()


class TestContextKey:
    def test_hashable_equal_and_picklable(self):
        key = TaskSetKey(4, 0.6, 7, 0.05, "fp")
        again = TaskSetKey(4, 0.6, 7, 0.05, "fp")
        assert key == again and hash(key) == hash(again)
        assert pickle.loads(pickle.dumps(key)) == key
        assert key.seed == 7 and key.n_tasks == 4

    def test_distinct_fields_distinct_keys(self):
        key = TaskSetKey(4, 0.6, 7, 0.05, "fp")
        assert key != TaskSetKey(4, 0.6, 8, 0.05, "fp")
        assert key != BenchmarkKey("bimodal", "literal", 64)

    def test_unknown_param_raises(self):
        # The swept fields are not part of a key.
        with pytest.raises(AttributeError):
            TaskSetKey(4, 0.6, 7, 0.05, "fp").q_fraction

    def test_policy_is_part_of_the_key(self):
        # A context builds the safe-Q vector of its key's policy only,
        # so fp and EDF scenarios over one generated set do not share.
        sim_fp = SimScenario(utilization=0.5, seed=3, policy="fp")
        sim_edf = SimScenario(utilization=0.5, seed=3, policy="edf")
        assert sim_context_key(sim_fp) == TaskSetKey(4, 0.5, 3, 0.05, "fp")
        assert sim_context_key(sim_edf) == TaskSetKey(4, 0.5, 3, 0.05, "edf")


class TestTasksetContextArtifacts:
    KEY = TaskSetKey(5, 0.6, 11, 0.05, "fp")

    def test_artifacts_match_single_shot_functions(self):
        base = _base_set(5, 0.6, 11, 0.05)
        maxima = {t.name: t.delay_function.max_value() for t in base}
        for policy, max_npr_lengths in (
            ("fp", fp_max_npr_lengths),
            ("edf", edf_max_npr_lengths),
        ):
            context = build_context(TaskSetKey(5, 0.6, 11, 0.05, policy))
            assert _task_sets_equal(context.task_set, base)
            assert context.delay_maxima == maxima
            assert context.safe_q == max_npr_lengths(base)

    def test_context_is_picklable(self):
        context = build_context(self.KEY)
        clone = pickle.loads(pickle.dumps(context))
        assert clone.key == context.key
        assert clone.safe_q == context.safe_q
        assert _task_sets_equal(clone.task_set, context.task_set)

    @pytest.mark.parametrize(
        "policy,built,skipped",
        [
            ("fp", "fp_blocking_tolerances", "edf_max_npr_lengths"),
            ("edf", "edf_max_npr_lengths", "fp_blocking_tolerances"),
        ],
    )
    def test_each_key_builds_only_its_policys_vector(
        self, monkeypatch, policy, built, skipped
    ):
        # What keeps a study build at its cost: an fp key builds no EDF
        # vector and an edf key no fp vector.
        from repro.engine import context as context_module

        calls = {built: 0, skipped: 0}
        for name in calls:
            real = getattr(context_module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(context_module, name, counting)
        context = build_context(TaskSetKey(5, 0.6, 11, 0.05, policy))
        assert calls == {built: 1, skipped: 0}
        assert context.safe_q is not None

    @pytest.mark.parametrize("policy", ["fp", "edf"])
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_prepared_task_set_matches_single_shot(self, policy, fraction):
        for seed in range(12):
            context = build_context(TaskSetKey(4, 0.75, seed, 0.05, policy))
            reference = prepared_task_set(
                4, 0.75, seed, fraction, 0.05, policy=policy
            )
            served = context.prepared_task_set(fraction)
            assert _task_sets_equal(served, reference), (policy, seed)

    def test_wrong_kind_artifact_rejected(self):
        # A key must name one of the two context kinds; the bare tuple
        # of a task-set key's fields is neither.
        with pytest.raises(ValueError, match="unknown context key"):
            build_context((5, 0.6, 11, 0.05, "fp"))

    def test_invalid_fraction_and_policy_fail_loudly(self):
        context = build_context(self.KEY)
        with pytest.raises(ValueError, match="q_fraction"):
            context.prepared_task_set(0.0)
        with pytest.raises(ValueError, match="policy"):
            build_context(TaskSetKey(5, 0.6, 11, 0.05, "rm"))


class TestBenchmarkContextArtifacts:
    def test_function_max_and_index_precomputed(self):
        key = BenchmarkKey("bimodal", "literal", 128)
        context = build_context(key)
        assert context.key == key
        assert context.function.function == (
            benchmark_function("bimodal", "literal", 128).function
        )
        assert context.function_max == context.function.max_value()
        assert context.function_index.function is context.function.function


class TestWorkersMatchUncontextedRecipes:
    """Every context-served worker reproduces the per-scenario rebuild
    bit for bit — the acceptance criterion of the refactor."""

    def test_bound_worker(self):
        from repro.core.bounds import compare_bounds
        from repro.experiments.functions_fig4 import fig4_delay_function

        clear_context_cache()
        for q in (40.0, 120.0, 900.0):
            scenario = BoundScenario(function="gaussian1", q=q, knots=128)
            result = evaluate_bound_scenario(scenario)
            f = fig4_delay_function("gaussian1", "literal", 128)
            reference = compare_bounds(f, q)
            assert result.algorithm1 == reference.algorithm1.total_delay
            assert (
                result.state_of_the_art
                == reference.state_of_the_art.total_delay
            )
            assert result.preemptions == reference.algorithm1.preemptions

    def test_study_worker(self):
        clear_context_cache()
        for seed in range(8):
            scenario = StudyScenario(
                utilization=0.7,
                seed=seed,
                n_tasks=4,
                q_fraction=0.5,
                delay_height=0.05,
                methods=METHODS,
            )
            result = evaluate_study_scenario(scenario)
            reference = prepared_task_set(4, 0.7, seed, 0.5, 0.05)
            if reference is None:
                assert not result.admitted
                continue
            assert result.admitted
            assert result.accepted == tuple(
                delay_aware_rta(reference, m).schedulable for m in METHODS
            )

    def test_edf_study_worker(self):
        clear_context_cache()
        for seed in range(6):
            scenario = EdfStudyScenario(
                utilization=0.6, seed=seed, n_tasks=4, q_fraction=0.5
            )
            result = evaluate_edf_study_scenario(scenario)
            reference = prepared_task_set(
                4, 0.6, seed, 0.5, 0.05, policy="edf"
            )
            if reference is None:
                assert not result.admitted
                continue
            assert result.accepted == edf_delay_aware_verdicts(
                reference, EDF_METHODS
            )

    def test_sim_worker_equals_fresh_context_evaluation(self):
        # The sim worker's randomness is scenario-owned; two evaluations
        # (cold and warm context) must agree exactly.
        clear_context_cache()
        scenario = SimScenario(utilization=0.5, seed=5, horizon_factor=2.0)
        cold = evaluate_sim_scenario(scenario)
        warm = evaluate_sim_scenario(scenario)
        clear_context_cache()
        again = evaluate_sim_scenario(scenario)
        assert cold == warm == again


class TestGroupedChunkPlan:
    def test_partition_covers_every_index_once(self):
        keys = ["a", "b", "a", "c", "b", "a", "c", "c", "c"]
        plan = grouped_chunk_plan(keys, 2)
        flat = sorted(i for chunk in plan for i in chunk)
        assert flat == list(range(len(keys)))

    def test_chunks_never_mix_groups(self):
        keys = ["a", "b", "a", "c", "b", "a", "c", "c", "c"]
        for chunk in grouped_chunk_plan(keys, 3):
            assert len({keys[i] for i in chunk}) == 1

    def test_chunk_order_and_intra_group_order(self):
        keys = ["b", "a", "b", "a"]
        plan = grouped_chunk_plan(keys, 10)
        assert plan == [[0, 2], [1, 3]]  # by min index, ascending inside

    def test_interleaved_chunks_ordered_by_min_index(self):
        # With fully interleaved groups and small chunks, the plan must
        # follow the stream front (bounded flush buffer), not emit one
        # whole group after another.
        keys = ["a", "b", "a", "b", "a", "b"]
        plan = grouped_chunk_plan(keys, 1)
        assert plan == [[0], [1], [2], [3], [4], [5]]
        plan = grouped_chunk_plan(keys, 2)
        assert plan == [[0, 2], [1, 3], [4], [5]]

    def test_chunk_size_respected(self):
        plan = grouped_chunk_plan(["x"] * 7, 3)
        assert [len(chunk) for chunk in plan] == [3, 3, 1]

    def test_empty_and_invalid(self):
        assert grouped_chunk_plan([], 4) == []
        with pytest.raises(ValueError):
            grouped_chunk_plan(["a"], 0)


class TestGroupedRunBatch:
    SCENARIOS = [
        BoundScenario(function=name, q=q, knots=64)
        for q in (40.0, 80.0, 200.0, 700.0)
        for name in ("gaussian1", "gaussian2", "bimodal")
    ]

    def test_pooled_grouped_matches_inline(self):
        inline = run_batch(evaluate_bound_scenario, self.SCENARIOS)
        grouped = run_batch(
            evaluate_bound_scenario,
            self.SCENARIOS,
            max_workers=3,
            chunk_size=2,
            group_by=bound_context_key,
        )
        assert grouped == inline

    def test_grouped_sink_bytes_match_ungrouped(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        grouped = tmp_path / "grouped.jsonl"
        with JsonlSink(plain) as sink:
            run_batch(
                evaluate_bound_scenario,
                self.SCENARIOS,
                sink=sink,
                collect=False,
            )
        with JsonlSink(grouped) as sink:
            run_batch(
                evaluate_bound_scenario,
                self.SCENARIOS,
                max_workers=2,
                chunk_size=2,
                sink=sink,
                collect=False,
                group_by=bound_context_key,
            )
        assert plain.read_bytes() == grouped.read_bytes()

    def test_worker_error_pins_original_index_under_grouping(
        self, thread_pool
    ):
        # Exactly one failing scenario: with several failures the
        # engine surfaces whichever failing chunk completes first
        # (same contract as the ungrouped pool).
        def boom(scenario):
            if scenario.q == 200.0 and scenario.function == "gaussian2":
                raise RuntimeError("kaput")
            return scenario.q

        index = next(
            i
            for i, s in enumerate(self.SCENARIOS)
            if s.q == 200.0 and s.function == "gaussian2"
        )
        with pytest.raises(WorkerError) as info:
            run_batch(
                boom,
                self.SCENARIOS,
                max_workers=2,
                chunk_size=2,
                group_by=bound_context_key,
            )
        assert info.value.index == index

    def test_grouped_cached_batch_byte_identical(self, tmp_path):
        from repro.store import ResultStore, package_fingerprint

        fingerprint = package_fingerprint("repro")
        plain = tmp_path / "plain.jsonl"
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        with JsonlSink(plain) as sink:
            run_batch(
                evaluate_bound_scenario,
                self.SCENARIOS,
                sink=sink,
                collect=False,
            )
        with ResultStore(tmp_path / "store.sqlite", fingerprint) as store:
            with JsonlSink(cold) as sink:
                run = run_cached_batch(
                    evaluate_bound_scenario,
                    self.SCENARIOS,
                    store,
                    sink=sink,
                    collect=False,
                    max_workers=2,
                    chunk_size=2,
                    group_by=bound_context_key,
                )
            assert run.computed == len(self.SCENARIOS)
            with JsonlSink(warm) as sink:
                run = run_cached_batch(
                    evaluate_bound_scenario,
                    self.SCENARIOS,
                    store,
                    sink=sink,
                    collect=False,
                    group_by=bound_context_key,
                )
            assert run.cached == len(self.SCENARIOS)
        assert plain.read_bytes() == cold.read_bytes() == warm.read_bytes()


class TestRegistryDeclarations:
    @pytest.mark.parametrize(
        "name,scenario,expected_artifacts",
        [
            (
                "bound",
                BoundScenario(function="bimodal", q=50.0, knots=64),
                {
                    "type": BenchmarkContext,
                    "key": BenchmarkKey("bimodal", "literal", 64),
                },
            ),
            (
                "study",
                StudyScenario(
                    utilization=0.5,
                    seed=1,
                    n_tasks=4,
                    q_fraction=0.5,
                    delay_height=0.05,
                    methods=METHODS,
                ),
                {
                    "type": TaskSetContext,
                    "key": TaskSetKey(4, 0.5, 1, 0.05, "fp"),
                },
            ),
            (
                "sim",
                SimScenario(utilization=0.5, seed=1, policy="edf"),
                {
                    "type": TaskSetContext,
                    "key": TaskSetKey(4, 0.5, 1, 0.05, "edf"),
                },
            ),
            (
                "edf-study",
                EdfStudyScenario(utilization=0.5, seed=1),
                {
                    "type": TaskSetContext,
                    "key": TaskSetKey(5, 0.5, 1, 0.05, "edf"),
                },
            ),
        ],
    )
    def test_families_declare_context_and_artifacts(
        self, name, scenario, expected_artifacts
    ):
        # The key alone says what the context holds.
        key = get_family(name).context_key(scenario)
        assert key == expected_artifacts["key"]
        context = build_context(key)
        assert type(context) is expected_artifacts["type"]
        assert context.key == key

    def test_family_keys_route_to_module_functions(self):
        study = StudyScenario(
            utilization=0.5,
            seed=1,
            n_tasks=4,
            q_fraction=0.5,
            delay_height=0.05,
            methods=METHODS,
        )
        assert get_family("study").context_key(study) == study_context_key(
            study
        )
        edf = EdfStudyScenario(utilization=0.5, seed=1)
        assert get_family("edf-study").context_key(
            edf
        ) == edf_study_context_key(edf)
        sim = SimScenario(utilization=0.5, seed=1)
        assert get_family("sim").context_key(sim) == sim_context_key(sim)


class TestContextCacheThrash:
    """Regression: large grouped campaigns must not thrash the context
    memo.  With more context groups than the cache holds, a q-major
    scenario order rebuilt every context per scenario before the
    grouped chunk plan existed; group-respecting chunks build each
    context exactly once regardless of the cache capacity."""

    def test_grouped_run_builds_each_context_once_despite_tiny_cache(
        self, monkeypatch, thread_pool
    ):
        from repro.engine import context as context_module
        from repro.utils.caching import ThreadPinnedLRU

        knots_grid = [16, 20, 24, 28, 32, 36, 40, 44]  # 8 context groups
        scenarios = [
            BoundScenario(function="gaussian1", q=q, knots=knots)
            for q in (60.0, 120.0, 240.0)  # q-major: groups interleave
            for knots in knots_grid
        ]

        expected = run_batch(evaluate_bound_scenario, scenarios)

        builds: list = []
        real_build = context_module.build_context

        def counting_build(key):
            builds.append(key)
            return real_build(key)

        monkeypatch.setattr(context_module, "build_context", counting_build)
        # Half the group count: an order-respecting run never notices,
        # a group-interleaved one would evict and rebuild constantly.
        monkeypatch.setattr(
            "repro.engine.sweeps.get_context",
            ThreadPinnedLRU(
                context_module._get_context, len(knots_grid) // 2
            ),
        )
        results = run_batch(
            evaluate_bound_scenario,
            scenarios,
            max_workers=2,
            group_by=bound_context_key,
        )
        assert results == expected
        assert len(builds) == len(knots_grid)
