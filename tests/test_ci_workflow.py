"""CI configuration anti-rot checks.

The workflow file is part of the repo's contract: it must stay valid
YAML with the agreed job set (lint + static-analysis check + test
matrix + docs + examples + serve smoke + benchmark smoke), reference
only commands/paths that exist, and the lint job must
have a committed ruff configuration to run against.  A structural check
here fails the tier-1 suite locally long before a push discovers the
workflow is broken.
"""

import re
import tomllib
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
PYPROJECT = REPO_ROOT / "pyproject.toml"

#: Python versions the tier-1 matrix must cover.
MATRIX_VERSIONS = {"3.10", "3.11", "3.12"}


@pytest.fixture(scope="module")
def workflow() -> dict:
    data = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(data, dict)
    return data


def _steps_commands(job: dict) -> str:
    return "\n".join(
        step.get("run", "") for step in job["steps"] if isinstance(step, dict)
    )


class TestWorkflowShape:
    def test_file_exists_and_parses(self, workflow):
        assert workflow.get("name")

    def test_triggers_on_push_and_pull_request(self, workflow):
        # PyYAML reads the bare `on:` key as boolean True (YAML 1.1).
        triggers = workflow.get("on", workflow.get(True))
        assert triggers is not None
        assert "push" in triggers
        assert "pull_request" in triggers

    def test_has_all_seven_jobs(self, workflow):
        assert set(workflow["jobs"]) >= {
            "lint",
            "check",
            "test",
            "docs",
            "examples",
            "serve-smoke",
            "bench-smoke",
        }

    def test_every_job_is_runnable(self, workflow):
        for name, job in workflow["jobs"].items():
            assert job.get("runs-on"), f"job {name} has no runs-on"
            steps = job.get("steps")
            assert steps, f"job {name} has no steps"
            for step in steps:
                assert "uses" in step or "run" in step, (
                    f"job {name} has a step with neither uses nor run"
                )

    def test_every_job_checks_out_and_sets_up_python(self, workflow):
        for name, job in workflow["jobs"].items():
            uses = [step.get("uses", "") for step in job["steps"]]
            assert any(u.startswith("actions/checkout@") for u in uses), name
            assert any(
                u.startswith("actions/setup-python@") for u in uses
            ), name


class TestJobCommands:
    def test_test_job_runs_tier1_over_the_matrix(self, workflow):
        job = workflow["jobs"]["test"]
        versions = set(job["strategy"]["matrix"]["python-version"])
        assert versions == MATRIX_VERSIONS
        assert "python -m pytest -x -q" in _steps_commands(job)

    def test_test_job_runs_the_perfbench_smoke_tests(self, workflow):
        # Every perfbench workload runs on tiny inputs and its output
        # digests are checked against perfbench/reference.json, so a
        # change to any record's bytes fails the tier-1 job.
        commands = _steps_commands(workflow["jobs"]["test"])
        assert "python -m pytest perfbench/smoke_check.py -q" in commands
        assert (REPO_ROOT / "perfbench" / "smoke_check.py").is_file()

    def test_lint_job_runs_ruff(self, workflow):
        commands = _steps_commands(workflow["jobs"]["lint"])
        assert "ruff check" in commands

    def test_check_job_runs_the_static_analysis_pass(self, workflow):
        # The domain-invariant pass (repro.checks) gates every push: one
        # run writes the SARIF log, and its exit code fails the job (no
        # `|| true`, no second run); the report schema is covered by
        # tests/checks/test_selfcheck.py and tests/checks/test_sarif.py.
        commands = _steps_commands(workflow["jobs"]["check"])
        assert commands.count("python -m repro check") == 1
        assert (
            "python -m repro check --format sarif > repro-checks.sarif"
            in commands
        )
        assert "|| true" not in commands

    def test_check_job_uploads_sarif_to_code_scanning(self, workflow):
        # Findings surface as code-scanning annotations: the log the
        # gating run wrote is uploaded even when that run failed.
        job = workflow["jobs"]["check"]
        upload = next(
            step
            for step in job["steps"]
            if step.get("uses", "").startswith(
                "github/codeql-action/upload-sarif@"
            )
        )
        assert upload["if"] == "always()"
        assert upload["with"]["sarif_file"] == "repro-checks.sarif"
        assert job["permissions"]["security-events"] == "write"

    def test_docs_job_runs_the_docs_suite(self, workflow):
        commands = _steps_commands(workflow["jobs"]["docs"])
        assert "tests/test_docs.py" in commands
        assert (REPO_ROOT / "tests" / "test_docs.py").is_file()

    def test_examples_job_runs_the_examples_suite(self, workflow):
        commands = _steps_commands(workflow["jobs"]["examples"])
        assert "tests/test_examples.py" in commands
        assert (REPO_ROOT / "tests" / "test_examples.py").is_file()
        # And the suite must cover every committed example script.
        assert list((REPO_ROOT / "examples").glob("*.py"))

    def test_bench_smoke_job_runs_benchmarks_in_smoke_mode(self, workflow):
        job = workflow["jobs"]["bench-smoke"]
        assert job["env"]["REPRO_BENCH_SMOKE"] == "1"
        commands = _steps_commands(job)
        assert "benchmarks/bench_*.py" in commands

    def test_bench_smoke_job_gates_the_grouped_speedup(self, workflow):
        # The shared-artifact context layer's ≥2x claim and the absolute
        # context-build and kernel gates are asserted inside
        # bench_engine.py; a dedicated smoke-mode step keeps them visible
        # (and failing) on their own in the job log.  The kernel gate is
        # selected by name, not through "grouped" matching
        # kernel_on_grouped.
        job = workflow["jobs"]["bench-smoke"]
        assert job["env"]["REPRO_BENCH_SMOKE"] == "1"
        commands = _steps_commands(job)
        assert "benchmarks/bench_engine.py" in commands
        assert '-k "grouped or context_build or kernel"' in commands
        assert any(
            "kernel" in step.get("name", "") and "bench_engine.py" in step.get("run", "")
            for step in job["steps"]
        )
        bench_engine = (REPO_ROOT / "benchmarks" / "bench_engine.py").read_text()
        assert "def test_grouped_context_beats_ungrouped_rebuild" in bench_engine
        assert "def test_context_build_within_baseline" in bench_engine
        assert "def test_kernel_on_grouped_grid_within_baseline" in bench_engine

    def test_bench_smoke_job_runs_a_campaign_end_to_end(self, workflow):
        # The campaign subsystem must be exercised for real on every
        # push: a cold store run, a --resume re-emission, and a
        # byte-identity check between the two.
        commands = _steps_commands(workflow["jobs"]["bench-smoke"])
        assert "python -m repro campaign fig5" in commands
        assert "--resume" in commands
        assert "cmp" in commands
        assert "sim-validate" in commands

    def test_bench_smoke_job_checks_the_folding_workloads(self, workflow):
        # The folding workloads' artifacts must not depend on how the
        # grid was run: a plain fig5 CSV against one rebuilt from two
        # merged shard stores, and a store-less study (the worker's own
        # results) against a cold one and a warm one (decoded records).
        commands = _steps_commands(workflow["jobs"]["bench-smoke"])
        assert "python -m repro fig5 --points 4 --knots 64" in commands
        assert "--shard $i/2" in commands
        assert "python -m repro merge /tmp/fig5-merged.sqlite" in commands
        assert "--store /tmp/fig5-merged.sqlite --resume" in commands
        assert "cmp /tmp/fold-plain/fig5.csv /tmp/fold-shard/fig5.csv" in commands
        assert "python -m repro study --tasks 3 --sets 4 --store" in commands
        assert (
            "python -m repro study --tasks 3 --sets 4 > /tmp/study-plain.txt"
            in commands
        )
        assert "cmp /tmp/study-plain.txt /tmp/study-cold.txt" in commands
        assert "cmp /tmp/study-cold.txt /tmp/study-warm.txt" in commands

    def test_bench_smoke_job_checks_fig4_from_a_cold_and_a_warm_store(
        self, workflow
    ):
        # fig4.csv must not depend on whether its one scenario was
        # computed, checkpointed to a cold store or replayed from it.
        commands = re.sub(
            r"\s*\\\n\s*", " ", _steps_commands(workflow["jobs"]["bench-smoke"])
        )
        fig4 = "python -m repro fig4 --knots 64"
        assert f"REPRO_RESULTS_DIR=/tmp/fig4-plain {fig4}\n" in commands
        assert (
            f"REPRO_RESULTS_DIR=/tmp/fig4-cold {fig4} --store /tmp/fig4.sqlite\n"
            in commands
        )
        assert (
            f"REPRO_RESULTS_DIR=/tmp/fig4-warm {fig4} --store /tmp/fig4.sqlite "
            "--resume\n" in commands
        )
        assert "cmp /tmp/fig4-plain/fig4.csv /tmp/fig4-cold/fig4.csv" in commands
        assert "cmp /tmp/fig4-plain/fig4.csv /tmp/fig4-warm/fig4.csv" in commands

    def test_bench_smoke_job_checks_the_process_pool_from_the_cli(
        self, workflow
    ):
        # The engine has one pool kind; a --jobs 2 run must match the
        # inline run byte for byte, for a pivoted CSV and a stream.
        commands = _steps_commands(workflow["jobs"]["bench-smoke"])
        assert (
            "python -m repro fig5 --points 4 --knots 64 --jobs 2" in commands
        )
        assert "cmp /tmp/fold-plain/fig5.csv /tmp/fold-jobs/fig5.csv" in commands
        assert (
            "python -m repro sweep --points 5 --knots 64 --jobs 2 "
            "--out /tmp/sweep-jobs.jsonl" in commands
        )
        assert (
            "python -m repro sweep --points 5 --knots 64 "
            "--out /tmp/sweep-inline.jsonl" in commands
        )
        assert "cmp /tmp/sweep-inline.jsonl /tmp/sweep-jobs.jsonl" in commands

    def test_bench_smoke_job_checks_the_task_set_campaigns_under_jobs(
        self, workflow
    ):
        # Task-set contexts group by policy; a pooled sim or edf-study
        # campaign must still stream the inline run's bytes.
        commands = re.sub(
            r"\s*\\\n\s*", " ", _steps_commands(workflow["jobs"]["bench-smoke"])
        )
        for name, stem in (("sim-validate", "sim"), ("edf-study", "edf")):
            run = f"python -m repro campaign {name} --set sets_per_point=2"
            assert f"{run} --out /tmp/{stem}-inline.jsonl\n" in commands
            assert f"{run} --jobs 2 --out /tmp/{stem}-jobs.jsonl\n" in commands
            assert f"cmp /tmp/{stem}-inline.jsonl /tmp/{stem}-jobs.jsonl" in commands

    def test_bench_smoke_job_has_no_backend_matrix(self, workflow):
        # One exact Algorithm 1 kernel: no backend matrix any more, and
        # no --backend flag (the CLI refuses it).
        job = workflow["jobs"]["bench-smoke"]
        assert "strategy" not in job
        assert "--backend" not in _steps_commands(job)

    def test_bench_smoke_job_has_no_numpy_step(self, workflow):
        # The numpy speedup gate went with the numpy backend: no numpy
        # install and no numpy gate step.  The remaining kernel's gate
        # (absolute µs/scenario against benchmarks/BASELINE.json) is a
        # test in bench_engine.py, run by the every-benchmark step.
        job = workflow["jobs"]["bench-smoke"]
        commands = _steps_commands(job)
        assert "numpy" not in commands
        assert "python -m pytest benchmarks/bench_*.py" in commands
        bench_engine = (REPO_ROOT / "benchmarks" / "bench_engine.py").read_text()
        assert "def test_kernel_on_grouped_grid_within_baseline" in bench_engine

    def test_serve_smoke_job_runs_the_serve_suites(self, workflow):
        # The analysis service must be exercised live on every push:
        # the concurrency/fault suite, the multi-writer store suite,
        # a real boot with three concurrent clients (the example), and
        # the warm-duplicate speedup gate.
        job = workflow["jobs"]["serve-smoke"]
        assert job["env"]["REPRO_BENCH_SMOKE"] == "1"
        commands = _steps_commands(job)
        assert "tests/serve" in commands
        assert "tests/store/test_concurrency.py" in commands
        assert "python examples/analysis_service.py" in commands
        assert "benchmarks/bench_serve.py" in commands
        assert (REPO_ROOT / "examples" / "analysis_service.py").is_file()

    def test_serve_smoke_job_runs_the_fault_suite_in_dev_mode(self, workflow):
        # The fault suite holds its jobs on an event instead of racing
        # a slow job, so it must also pass under python -X dev.
        commands = _steps_commands(workflow["jobs"]["serve-smoke"])
        assert "python -X dev -m pytest tests/serve/test_faults.py" in commands

    def test_workflow_paths_exist(self, workflow):
        # Any repo path named in a run command must exist.
        commands = "\n".join(
            _steps_commands(job) for job in workflow["jobs"].values()
        )
        for match in re.findall(
            r"\b(?:tests|benchmarks|src|docs)/[\w./*]*", commands
        ):
            path = match.rstrip(".")
            if "*" in path:
                assert list(REPO_ROOT.glob(path)), f"no match for {path}"
            else:
                assert (REPO_ROOT / path).exists(), f"missing {path}"

    def test_pythonpath_covers_the_src_layout(self, workflow):
        assert workflow["env"]["PYTHONPATH"] == "src"


class TestRuffConfig:
    def test_pyproject_has_ruff_lint_and_format_config(self):
        config = tomllib.loads(PYPROJECT.read_text())
        ruff = config["tool"]["ruff"]
        assert ruff["line-length"] >= 79
        assert "E" in ruff["lint"]["select"]
        assert "F" in ruff["lint"]["select"]
        assert ruff["format"]["quote-style"] == "double"

    def test_ruff_selection_includes_the_hardened_families(self):
        # Bugbear (B), naive-datetime (DTZ) and the scoped bandit
        # slice (exec/eval, pickle, shell=True) landed together with
        # the fixes they required; dropping them would be a silent
        # de-hardening.
        config = tomllib.loads(PYPROJECT.read_text())
        select = config["tool"]["ruff"]["lint"]["select"]
        assert "B" in select
        assert "DTZ" in select
        assert "S102" in select  # exec()
        assert "S301" in select  # pickle.loads
        assert "S602" in select  # subprocess shell=True
