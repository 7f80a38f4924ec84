"""Golden tests for the ``repro.api`` facade.

Every grid workload must equal an independent reference — the fold of
a direct :func:`repro.engine.run_batch` over the grid built by hand —
under every execution mode (solo, ``jobs=2``, fail-after + resume,
shard + merge), and the CLI and the facade must write the same bytes.
"""

import pytest

from repro.api import (
    ExecutionOptions,
    RunRequest,
    SinkSpec,
    Workbench,
    run,
)

_SMALL = dict(points=4, knots=64)


@pytest.fixture
def bench() -> Workbench:
    return Workbench()


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    target = tmp_path / "results"
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(target))
    return target


# ----------------------------------------------------------------------
# every grid workload against an independent reference
# ----------------------------------------------------------------------


def _reference(workload: str, directory):
    """What ``workload`` must produce, computed without the facade: a
    hand-built grid, a direct inline ``run_batch`` and the fold."""
    from repro.engine import JsonlSink, run_batch
    from repro.engine.sweeps import (
        evaluate_bound_scenario,
        evaluate_study_scenario,
        q_sweep_scenarios,
    )
    from repro.experiments import (
        STUDY_METHODS,
        STUDY_UTILIZATIONS,
        default_q_grid,
        fig5_data_from_results,
        fold_study_points,
        generate_fig4,
        study_scenarios,
        write_fig4_csv,
        write_fig5_csv,
    )

    directory.mkdir()
    qs = default_q_grid(points=4)
    if workload == "fig4":
        data = generate_fig4(samples=21, knots=64)
        return data, write_fig4_csv(data, directory=directory).read_bytes()
    if workload == "fig5":
        results = run_batch(
            evaluate_bound_scenario, q_sweep_scenarios(qs, knots=64)
        )
        data = fig5_data_from_results(qs, results)
        return data, write_fig5_csv(data, directory=directory).read_bytes()
    if workload == "study":
        scenarios = study_scenarios(
            list(STUDY_UTILIZATIONS), list(STUDY_METHODS),
            n_tasks=3, sets_per_point=4, q_fraction=0.5,
            delay_height=0.05, seed=2012,
        )
        results = run_batch(evaluate_study_scenario, scenarios)
        points = fold_study_points(
            list(STUDY_UTILIZATIONS), list(STUDY_METHODS), 4, results
        )
        return points, tuple(results)
    out = directory / "sweep.jsonl"
    with JsonlSink(out) as sink:
        run_batch(
            evaluate_bound_scenario,
            q_sweep_scenarios(qs, knots=64),
            sink=sink,
            collect=False,
        )
    return None, out.read_bytes()


def _observed(result, out):
    """The same pair as :func:`_reference`, read off a facade run."""
    workload = result.request.workload
    if workload == "study":
        return result.payload, result.records
    if workload == "sweep":
        return None, out.read_bytes()
    with open(result.artifacts[0], "rb") as handle:
        return result.payload, handle.read()


_GRID_PARAMS = {
    "fig4": dict(samples=21, knots=64),
    "fig5": _SMALL,
    "study": dict(tasks=3, sets=4),
    "sweep": _SMALL,
}


@pytest.mark.parametrize("mode", ["solo", "jobs2", "resume", "shard-merge"])
@pytest.mark.parametrize("workload", list(_GRID_PARAMS))
def test_grid_workload_matches_direct_batch(
    workload, mode, bench, results_dir, tmp_path
):
    out = tmp_path / "out.jsonl"

    # Only the streaming workload takes a sink; the folding ones refuse it.
    sinks = (SinkSpec(str(out)),) if workload == "sweep" else ()

    def go(**options):
        request = RunRequest.make(
            workload,
            ExecutionOptions(sinks=sinks, **options),
            **_GRID_PARAMS[workload],
        )
        return bench.run(request)

    store = str(tmp_path / "run.sqlite")
    if mode == "solo":
        result = go()
    elif mode == "jobs2":
        result = go(jobs=2)
    elif mode == "resume":
        with pytest.raises(KeyboardInterrupt):
            go(store=store, fail_after=1)
        result = go(store=store, resume=True)
        assert result.cached == 1
    else:
        shards = [str(tmp_path / f"shard{i}.sqlite") for i in (1, 2)]
        for i, shard in enumerate(shards, start=1):
            go(store=shard, shard=f"{i}/2")
        run("merge", target=store, sources=shards)
        result = go(store=store, resume=True)
        assert result.computed == 0
    assert _observed(result, out) == _reference(workload, tmp_path / "ref")


@pytest.mark.parametrize("workload", list(_GRID_PARAMS))
def test_manifest_rebuilds_the_planned_grid(workload):
    from repro.api import get_workload, manifest_scenarios
    from repro.api.plan import plan_scenarios

    params = get_workload(workload).resolve_params(_GRID_PARAMS[workload])
    plan = plan_scenarios(workload, params)
    assert manifest_scenarios(plan.manifest) == plan.scenarios


@pytest.mark.parametrize("workload", ["fig4", "fig5", "study"])
@pytest.mark.parametrize("option", ["sinks", "format"])
def test_folding_workload_refuses_sink_options(
    workload, option, bench, results_dir, tmp_path
):
    # A folding workload writes its own artifact, never a record stream:
    # a sink it would silently ignore is refused instead.
    out = tmp_path / "x.jsonl"
    options = (
        ExecutionOptions(sinks=(str(out),))
        if option == "sinks"
        else ExecutionOptions(format="csv")
    )
    request = RunRequest.make(workload, options, **_GRID_PARAMS[workload])
    with pytest.raises(ValueError, match=f"^{workload} folds its grid"):
        bench.run(request)
    assert not out.exists()


def test_unknown_manifest_kind_is_refused():
    from repro.api import manifest_scenarios

    with pytest.raises(ValueError, match="unsupported sweep manifest"):
        manifest_scenarios({"kind": "validate"})


class TestFig5Golden:
    def test_fig5_jobs_bit_identical(self, bench, results_dir, tmp_path):
        inline = bench.run(RunRequest.make("fig5", **_SMALL))
        inline_bytes = (results_dir / "fig5.csv").read_bytes()
        pooled = bench.run(
            RunRequest.make("fig5", ExecutionOptions(jobs=2), **_SMALL)
        )
        assert (results_dir / "fig5.csv").read_bytes() == inline_bytes
        assert pooled.records == inline.records

    def test_fig5_resume_byte_identical(self, bench, results_dir, tmp_path):
        bench.run(RunRequest.make("fig5", **_SMALL))
        plain = (results_dir / "fig5.csv").read_bytes()

        store = tmp_path / "fig5.sqlite"
        with pytest.raises(KeyboardInterrupt):
            bench.run(
                RunRequest.make(
                    "fig5",
                    ExecutionOptions(store=str(store), fail_after=3),
                    **_SMALL,
                )
            )
        resumed = bench.run(
            RunRequest.make(
                "fig5",
                ExecutionOptions(store=str(store), resume=True),
                **_SMALL,
            )
        )
        assert resumed.cached == 3
        assert (results_dir / "fig5.csv").read_bytes() == plain

    def test_fig5_shard_then_merge_byte_identical(
        self, bench, results_dir, tmp_path
    ):
        bench.run(RunRequest.make("fig5", **_SMALL))
        plain = (results_dir / "fig5.csv").read_bytes()
        (results_dir / "fig5.csv").unlink()

        shards = []
        for i in (1, 2):
            store = tmp_path / f"shard{i}.sqlite"
            shards.append(str(store))
            sharded = bench.run(
                RunRequest.make(
                    "fig5",
                    ExecutionOptions(store=str(store), shard=f"{i}/2"),
                    **_SMALL,
                )
            )
            # A shard computes only its slice and writes no artifact.
            assert sharded.extra["sharded"]
            assert not (results_dir / "fig5.csv").exists()

        merged = tmp_path / "merged.sqlite"
        run("merge", target=str(merged), sources=shards)
        final = bench.run(
            RunRequest.make(
                "fig5",
                ExecutionOptions(store=str(merged), resume=True),
                **_SMALL,
            )
        )
        assert final.computed == 0
        assert (results_dir / "fig5.csv").read_bytes() == plain

    def test_fig5_shard_without_store_fails_loudly(self, bench, results_dir):
        with pytest.raises(ValueError, match="requires --store"):
            bench.run(
                RunRequest.make(
                    "fig5", ExecutionOptions(shard="1/2"), **_SMALL
                )
            )


class TestSweepGolden:
    def test_sweep_matches_cli(self, bench, results_dir, tmp_path, capsys):
        from repro.cli import main

        cli_out = tmp_path / "cli.jsonl"
        assert main(
            ["sweep", "--points", "4", "--knots", "64",
             "--out", str(cli_out)]
        ) == 0
        capsys.readouterr()

        api_out = tmp_path / "api.jsonl"
        result = bench.run(
            RunRequest.make(
                "sweep",
                ExecutionOptions(sinks=(SinkSpec(str(api_out)),)),
                **_SMALL,
            )
        )
        assert result.total == 12
        assert api_out.read_bytes() == cli_out.read_bytes()

    def test_sweep_csv_and_jobs_match_cli(
        self, bench, results_dir, tmp_path, capsys
    ):
        from repro.cli import main

        cli_out = tmp_path / "cli.csv"
        assert main(
            ["sweep", "--points", "4", "--knots", "64", "--jobs", "2",
             "--format", "csv", "--out", str(cli_out)]
        ) == 0
        capsys.readouterr()

        api_out = tmp_path / "api.csv"
        bench.run(
            RunRequest.make(
                "sweep",
                ExecutionOptions(jobs=2, sinks=(SinkSpec(str(api_out)),)),
                **_SMALL,
            )
        )
        assert api_out.read_bytes() == cli_out.read_bytes()

    def test_sweep_resume_matches_plain(self, bench, results_dir, tmp_path):
        plain_out = tmp_path / "plain.jsonl"
        bench.run(
            RunRequest.make(
                "sweep",
                ExecutionOptions(sinks=(SinkSpec(str(plain_out)),)),
                **_SMALL,
            )
        )
        out = tmp_path / "resumed.jsonl"
        store = tmp_path / "sweep.sqlite"
        with pytest.raises(KeyboardInterrupt):
            bench.run(
                RunRequest.make(
                    "sweep",
                    ExecutionOptions(
                        store=str(store),
                        sinks=(SinkSpec(str(out)),),
                        fail_after=4,
                    ),
                    **_SMALL,
                )
            )
        resumed = bench.run(
            RunRequest.make(
                "sweep",
                ExecutionOptions(
                    store=str(store), resume=True,
                    sinks=(SinkSpec(str(out)),),
                ),
                **_SMALL,
            )
        )
        assert resumed.cached == 4
        assert out.read_bytes() == plain_out.read_bytes()


class TestCampaignGolden:
    def test_builtin_campaign_matches_cli(
        self, bench, results_dir, tmp_path, capsys
    ):
        from repro.cli import main

        cli_out = tmp_path / "cli.jsonl"
        assert main(
            ["campaign", "sim-validate",
             "--set", "sets_per_point=3",
             "--set", "utilizations=[0.4, 0.6]",
             "--out", str(cli_out)]
        ) == 0
        capsys.readouterr()

        api_out = tmp_path / "api.jsonl"
        result = bench.run(
            RunRequest.campaign(
                "sim-validate",
                {"sets_per_point": 3, "utilizations": [0.4, 0.6]},
                options=ExecutionOptions(sinks=(SinkSpec(str(api_out)),)),
            )
        )
        assert result.extra["campaign"] == "sim-validate"
        assert len(result.records) == 6
        assert api_out.read_bytes() == cli_out.read_bytes()

    def test_family_request_matches_engine(self, bench, results_dir):
        from repro.engine import run_batch
        from repro.engine.registry import get_family
        from repro.engine.sweeps import BoundScenario

        result = bench.run(
            RunRequest.family(
                "bound",
                axes={
                    "q": {"grid": [50.0, 100.0]},
                    "function": {"grid": ["gaussian1"]},
                },
                defaults={"knots": 64},
            )
        )
        scenarios = [
            BoundScenario(function="gaussian1", q=q, knots=64)
            for q in (50.0, 100.0)
        ]
        expected = run_batch(get_family("bound").worker, scenarios)
        assert list(result.records) == expected

class TestStudyGolden:
    def test_study_resume_matches_plain(self, bench, results_dir, tmp_path):
        plain = bench.run(RunRequest.make("study", tasks=3, sets=4))
        store = tmp_path / "study.sqlite"
        with pytest.raises(KeyboardInterrupt):
            bench.run(
                RunRequest.make(
                    "study",
                    ExecutionOptions(store=str(store), fail_after=5),
                    tasks=3, sets=4,
                )
            )
        resumed = bench.run(
            RunRequest.make(
                "study",
                ExecutionOptions(store=str(store), resume=True),
                tasks=3, sets=4,
            )
        )
        assert resumed.cached == 5
        assert resumed.payload == plain.payload
        assert resumed.records == plain.records


class TestValidateAndFigures:
    def test_validate_matches_legacy_campaign(self, bench, results_dir):
        from repro.sim import (
            reference_validation_task_set,
            validation_campaign,
        )

        legacy = validation_campaign(
            reference_validation_task_set(200.0),
            policy="fp",
            seeds=range(2),
            horizon=9_000.0,
        )
        result = bench.run(
            RunRequest.make("validate", q=200.0, seeds=2, horizon=9_000.0)
        )
        assert result.ok
        assert result.payload == legacy

    def test_fig4_store_serves_second_run(self, bench, results_dir, tmp_path):
        store = tmp_path / "fig4.sqlite"
        options = ExecutionOptions(store=str(store))
        first = bench.run(
            RunRequest.make("fig4", options, samples=21, knots=64)
        )
        second = bench.run(
            RunRequest.make("fig4", options, samples=21, knots=64)
        )
        assert (first.computed, second.cached) == (1, 1)
        assert first.payload == second.payload

    def test_fig2_reproduces_counterexample(self, bench, results_dir):
        result = bench.run(RunRequest.make("fig2"))
        assert result.ok
        assert result.payload.naive_is_violated
        assert result.payload.algorithm1_is_safe


class TestRequestValidation:
    def test_unknown_workload_lists_choices(self, bench):
        with pytest.raises(ValueError, match="registered workloads"):
            bench.run(RunRequest.make("nope"))

    def test_unknown_parameter_lists_valid_ones(self, bench):
        with pytest.raises(ValueError, match="valid parameters"):
            bench.run(RunRequest.make("fig5", bogus=1))

    def test_wrong_type_fails_loudly(self, bench):
        with pytest.raises(ValueError, match="expects int"):
            bench.run(RunRequest.make("fig5", points="many"))

    def test_missing_required_parameter(self, bench):
        with pytest.raises(ValueError, match="requires parameter"):
            bench.run(RunRequest.make("campaign"))

    def test_invalid_shard_rejected_at_construction(self):
        with pytest.raises(ValueError, match="invalid shard spec"):
            ExecutionOptions(shard="9/4")

    def test_resume_requires_store(self, bench, results_dir):
        with pytest.raises(ValueError, match="--resume requires --store"):
            bench.run(
                RunRequest.make(
                    "sweep", ExecutionOptions(resume=True), **_SMALL
                )
            )

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError, match="repeats parameter"):
            RunRequest(
                workload="fig5", params=(("points", 4), ("points", 5))
            )

    def test_pair_shaped_lists_survive_the_freeze_thaw_round_trip(self):
        # Regression: a list of [str, value] pairs must come back as a
        # list, not be mistaken for a frozen mapping and dict-ified.
        request = RunRequest.make(
            "campaign",
            spec={
                "family": "bound",
                "axes": [
                    ["q", {"grid": [50.0]}],
                    ["function", {"grid": ["gaussian1"]}],
                ],
                "defaults": {"knots": 64},
            },
        )
        spec = request.params_dict()["spec"]
        assert spec["axes"] == [
            ["q", {"grid": [50.0]}],
            ["function", {"grid": ["gaussian1"]}],
        ]
        assert spec["defaults"] == {"knots": 64}
