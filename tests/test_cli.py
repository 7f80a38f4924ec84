"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_shard


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("fig4", "fig5", "fig2", "validate", "study", "sweep"):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.run)

    def test_merge_command(self):
        args = build_parser().parse_args(["merge", "t.sqlite", "a.sqlite"])
        assert args.command == "merge"
        assert args.target == "t.sqlite"
        assert args.sources == ["a.sqlite"]



def _zz_workload(**kw):
    from repro.api.workloads import Workload

    base = dict(
        name="zz",
        summary="a workload the parser must never see",
        parameters=(),
        runner=lambda request, params: None,
        render=str,
        flags=frozenset({"engine"}),
    )
    base.update(kw)
    return Workload(**base)


@pytest.mark.usefixtures("scratch_registries")
class TestRegistrationGuards:
    """A workload the generated parser would mangle is refused when it
    registers, not silently misparsed later."""

    def test_misspelled_flag_group_is_refused(self):
        from repro.api.workloads import register_workload, workload_names

        # build_parser() would skip the unknown group without a word.
        with pytest.raises(ValueError, match="unknown flag group 'engin'"):
            register_workload(
                _zz_workload(flags=frozenset({"engine", "engin"}))
            )
        assert "zz" not in workload_names()

    def test_positional_shadowed_by_a_shared_flag_is_refused(self):
        from repro.api.workloads import (
            Parameter,
            register_workload,
            workload_names,
        )

        # 'repro zz 5 --jobs 3' would bind jobs=3 and lose the 5.
        jobs = Parameter("jobs", int, positional=True)
        with pytest.raises(ValueError, match="parameter 'jobs' collides"):
            register_workload(_zz_workload(parameters=(jobs,)))
        assert "zz" not in workload_names()


class TestParseShard:
    def test_valid_specs(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/4") == (2, 4)

    @pytest.mark.parametrize(
        "spec", ["", "2", "0/4", "5/4", "a/b", "1/0", "-1/4", "1/4/2"]
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_shard(spec)


class TestCommands:
    def test_fig4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["fig4", "--samples", "21", "--knots", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out
        assert (tmp_path / "fig4.csv").exists()

    def test_fig2(self, capsys):
        code = main(["fig2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "naive violated" in out

    def test_validate_small(self, capsys):
        code = main(
            ["validate", "--seeds", "2", "--horizon", "9000", "--q", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "passed: True" in out

    def test_validate_edf(self, capsys):
        code = main(
            [
                "validate",
                "--seeds",
                "1",
                "--horizon",
                "9000",
                "--policy",
                "edf",
            ]
        )
        assert code == 0
        assert "passed: True" in capsys.readouterr().out

    def test_study_small(self, capsys):
        code = main(["study", "--tasks", "3", "--sets", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oblivious" in out


_SWEEP = ["sweep", "--points", "5", "--knots", "64"]


def _run(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    return main(argv)


class TestSweepStore:
    """End-to-end sweep/merge runs in a tmpdir (the resumable-sweep
    acceptance surface: kill-and-resume and shard-and-merge must be
    byte-identical to one uninterrupted, unsharded run)."""

    def test_interrupted_then_resumed_is_byte_identical(
        self, tmp_path, monkeypatch, capsys
    ):
        plain = tmp_path / "plain.jsonl"
        assert _run(tmp_path, monkeypatch, [*_SWEEP, "--out", str(plain)]) == 0

        out = tmp_path / "resumed.jsonl"
        store = tmp_path / "sweep.sqlite"
        # Simulated mid-sweep kill after 4 checkpointed scenarios.
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *_SWEEP,
                "--out", str(out),
                "--store", str(store),
                "--fail-after", "4",
            ],
        )
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted" in captured.err
        assert "--resume" in captured.err

        code = _run(
            tmp_path,
            monkeypatch,
            [*_SWEEP, "--out", str(out), "--store", str(store), "--resume"],
        )
        out_table = capsys.readouterr().out
        assert code == 0
        assert "cached" in out_table
        assert out.read_bytes() == plain.read_bytes()

    def test_interrupted_then_resumed_csv(self, tmp_path, monkeypatch):
        plain = tmp_path / "plain.csv"
        argv = [*_SWEEP, "--format", "csv"]
        assert _run(tmp_path, monkeypatch, [*argv, "--out", str(plain)]) == 0

        out = tmp_path / "resumed.csv"
        store = tmp_path / "sweep.sqlite"
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *argv,
                "--out", str(out),
                "--store", str(store),
                "--fail-after", "3",
            ],
        )
        assert code == 130
        code = _run(
            tmp_path,
            monkeypatch,
            [*argv, "--out", str(out), "--store", str(store), "--resume"],
        )
        assert code == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_warm_store_recomputes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        store = tmp_path / "sweep.sqlite"
        out = tmp_path / "out.jsonl"
        argv = [*_SWEEP, "--out", str(out), "--store", str(store)]
        assert _run(tmp_path, monkeypatch, argv) == 0
        capsys.readouterr()
        assert _run(tmp_path, monkeypatch, argv) == 0
        table = capsys.readouterr().out
        computed_row = next(
            line for line in table.splitlines() if "computed" in line
        )
        assert " 0" in computed_row

    def test_sharded_runs_merge_byte_identical(
        self, tmp_path, monkeypatch
    ):
        plain = tmp_path / "plain.jsonl"
        assert _run(tmp_path, monkeypatch, [*_SWEEP, "--out", str(plain)]) == 0

        shards = []
        for i in (1, 2, 3):
            store = tmp_path / f"shard{i}.sqlite"
            shards.append(str(store))
            code = _run(
                tmp_path,
                monkeypatch,
                [
                    *_SWEEP,
                    "--out", str(tmp_path / f"shard{i}.jsonl"),
                    "--store", str(store),
                    "--shard", f"{i}/3",
                ],
            )
            assert code == 0

        merged_out = tmp_path / "merged.jsonl"
        code = _run(
            tmp_path,
            monkeypatch,
            [
                "merge",
                str(tmp_path / "merged.sqlite"),
                *shards,
                "--out", str(merged_out),
            ],
        )
        assert code == 0
        assert merged_out.read_bytes() == plain.read_bytes()

    def test_merge_of_incomplete_shards_fails_clearly(
        self, tmp_path, monkeypatch, capsys
    ):
        store = tmp_path / "shard1.sqlite"
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *_SWEEP,
                "--out", str(tmp_path / "s1.jsonl"),
                "--store", str(store),
                "--shard", "1/3",
            ],
        )
        assert code == 0
        capsys.readouterr()
        code = _run(
            tmp_path,
            monkeypatch,
            [
                "merge",
                str(tmp_path / "merged.sqlite"),
                str(store),
                "--out", str(tmp_path / "merged.jsonl"),
            ],
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "missing" in captured.err


class TestSweepErrors:
    def test_worker_failure_exits_nonzero_with_clear_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # knots=0 makes every worker raise while building its benchmark
        # function — the regression surface for "a failing sweep must
        # not exit 0".
        code = _run(
            tmp_path,
            monkeypatch,
            [
                "sweep",
                "--points", "2",
                "--knots", "0",
                "--out", str(tmp_path / "bad.jsonl"),
            ],
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: worker failed on scenario" in captured.err
        assert "BoundScenario" in captured.err

    def test_worker_failure_exits_nonzero_when_pooled(
        self, tmp_path, monkeypatch, capsys
    ):
        code = _run(
            tmp_path,
            monkeypatch,
            [
                "sweep",
                "--points", "2",
                "--knots", "0",
                "--jobs", "2",
                "--out", str(tmp_path / "bad.jsonl"),
            ],
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: worker failed on scenario" in captured.err

    def test_resume_requires_store(self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch, [*_SWEEP, "--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--resume requires --store" in captured.err

    def test_resume_requires_existing_store(
        self, tmp_path, monkeypatch, capsys
    ):
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *_SWEEP,
                "--store", str(tmp_path / "absent.sqlite"),
                "--resume",
            ],
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "does not exist" in captured.err

    def test_invalid_shard_spec(self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch, [*_SWEEP, "--shard", "9/4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid shard spec" in captured.err

    def test_merge_rejects_non_store_file(
        self, tmp_path, monkeypatch, capsys
    ):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a database")
        code = _run(
            tmp_path,
            monkeypatch,
            ["merge", str(tmp_path / "t.sqlite"), str(bogus)],
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not a valid result store" in captured.err

    def test_merge_missing_inputs(self, tmp_path, monkeypatch, capsys):
        code = _run(
            tmp_path,
            monkeypatch,
            [
                "merge",
                str(tmp_path / "t.sqlite"),
                str(tmp_path / "absent.sqlite"),
            ],
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not found" in captured.err

    def test_merge_without_manifest_cannot_emit(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.store import ResultStore, package_fingerprint

        source = tmp_path / "bare.sqlite"
        with ResultStore(
            source, fingerprint=package_fingerprint("repro")
        ) as store:
            store.put("k", {"v": 1})
        code = _run(
            tmp_path,
            monkeypatch,
            [
                "merge",
                str(tmp_path / "t.sqlite"),
                str(source),
                "--out", str(tmp_path / "o.jsonl"),
            ],
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "manifest" in captured.err


class TestShardConsistency:
    def test_sweep_resume_with_different_shard_fails_clearly(
        self, tmp_path, monkeypatch, capsys
    ):
        store = tmp_path / "shard.sqlite"
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *_SWEEP,
                "--out", str(tmp_path / "s1.jsonl"),
                "--store", str(store),
                "--shard", "1/3",
            ],
        )
        assert code == 0
        capsys.readouterr()
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *_SWEEP,
                "--out", str(tmp_path / "s2.jsonl"),
                "--store", str(store),
                "--shard", "2/3",
                "--resume",
            ],
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "recorded for shard '1/3'" in captured.err
        assert "partial result file" in captured.err

    def test_sweep_unsharded_store_rejects_sharded_resume(
        self, tmp_path, monkeypatch, capsys
    ):
        store = tmp_path / "full.sqlite"
        code = _run(
            tmp_path,
            monkeypatch,
            [*_SWEEP, "--out", str(tmp_path / "f.jsonl"), "--store", str(store)],
        )
        assert code == 0
        capsys.readouterr()
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *_SWEEP,
                "--out", str(tmp_path / "p.jsonl"),
                "--store", str(store),
                "--shard", "1/2",
            ],
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "recorded for shard 'full'" in captured.err
