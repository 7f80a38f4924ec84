"""The uniform ``--backend`` axis end-to-end through the CLI.

The acceptance surface of the backend redesign: every workload accepts
``--backend``; an unknown name fails loudly listing the registry; the
``numpy`` backend is **byte-identical** to the default across all four
scenario families — including ``--jobs`` fan-out, kill-and-resume and
shard-and-merge; and a ``--store`` run records which backend computed
it.
"""

import pytest

from repro.api.workloads import get_workload, workload_names
from repro.cli import main
from repro.piecewise import available_backends
from repro.piecewise import backends as backends_module
from repro.piecewise.backends import EXACT_BIT_IDENTICAL, KernelBackend
from repro.store import ResultStore

HAS_NUMPY = "numpy" in available_backends()
needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy backend not available"
)

_SWEEP = ["sweep", "--points", "5", "--knots", "64"]

#: One small campaign per scenario family (bound via plain sweep).
_FAMILY_CAMPAIGNS = {
    "bound": ["campaign", "fig5", "--set", "points=4", "--set", "knots=48"],
    "study": [
        "campaign", "study",
        "--set", "sets_per_point=2",
        "--set", "utilizations=[0.4, 0.6]",
        "--set", "n_tasks=3",
    ],
    "sim": [
        "campaign", "sim-validate",
        "--set", "sets_per_point=2",
        "--set", "utilizations=[0.5]",
    ],
    "edf-study": [
        "campaign", "edf-study",
        "--set", "sets_per_point=2",
        "--set", "utilizations=[0.4, 0.6]",
        "--set", "n_tasks=3",
    ],
}


def _run(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    return main(argv)


class TestBackendsCommand:
    def test_lists_the_whole_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("scalar", "vectorized", "numpy"):
            assert name in out
        assert "bit-identical" in out

    def test_reports_live_availability(self, capsys):
        main(["backends"])
        out = capsys.readouterr().out
        vectorized_row = next(
            line for line in out.splitlines() if "vectorized" in line
        )
        assert "yes" in vectorized_row


class TestUniformFlag:
    def test_every_workload_declares_the_backend_group(self):
        for name in workload_names():
            assert "backend" in get_workload(name).flags, name

    def test_unknown_backend_exits_2_listing_the_registry(
        self, tmp_path, monkeypatch, capsys
    ):
        # "numba" was a backend once; stores it wrote still resume
        # (TestStoreRecording), but the flag now names nothing.
        for name in ("bogus", "numba"):
            code = _run(tmp_path, monkeypatch, [*_SWEEP, "--backend", name])
            err = capsys.readouterr().err
            assert code == 2
            assert f"unknown backend {name!r}" in err
            assert "registered backends: scalar, vectorized, numpy\n" in err

    def test_unavailable_backend_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        # A registered backend whose module is missing, on every host.
        monkeypatch.setitem(
            backends_module._BACKENDS,
            "fake-unavailable",
            KernelBackend(
                name="fake-unavailable",
                description="registered by a test; never left behind",
                exactness=EXACT_BIT_IDENTICAL,
                requires="no_such_module",
                available=False,
                batch_capable=False,
                evaluate_many=None,
                bound_batch=None,
            ),
        )
        code = _run(
            tmp_path, monkeypatch, [*_SWEEP, "--backend", "fake-unavailable"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "not available" in err
        assert "requires the 'no_such_module' module" in err

    def test_non_engine_workloads_accept_the_flag(
        self, tmp_path, monkeypatch, capsys
    ):
        # Workloads outside the engine hot path still parse and
        # validate --backend (uniform surface; documented no-op).
        code = _run(
            tmp_path, monkeypatch, ["fig2", "--backend", "vectorized"]
        )
        assert code == 0
        assert "naive violated" in capsys.readouterr().out


@needs_numpy
class TestNumpyParity:
    """`--backend numpy` output bytes equal the default's, everywhere."""

    def _baseline(self, tmp_path, monkeypatch, argv, name="plain"):
        out = tmp_path / f"{name}.jsonl"
        assert _run(tmp_path, monkeypatch, [*argv, "--out", str(out)]) == 0
        return out

    def test_sweep_is_byte_identical(self, tmp_path, monkeypatch):
        plain = self._baseline(tmp_path, monkeypatch, _SWEEP)
        out = tmp_path / "numpy.jsonl"
        code = _run(
            tmp_path,
            monkeypatch,
            [*_SWEEP, "--backend", "numpy", "--out", str(out)],
        )
        assert code == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_sweep_with_jobs_is_byte_identical(self, tmp_path, monkeypatch):
        plain = self._baseline(tmp_path, monkeypatch, _SWEEP)
        out = tmp_path / "numpy-jobs.jsonl"
        code = _run(
            tmp_path,
            monkeypatch,
            [
                *_SWEEP,
                "--backend", "numpy",
                "--jobs", "2",
                "--out", str(out),
            ],
        )
        assert code == 0
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "family", ["study", "sim", "edf-study"]
    )
    def test_other_families_are_byte_identical(
        self, tmp_path, monkeypatch, family
    ):
        argv = _FAMILY_CAMPAIGNS[family]
        plain = self._baseline(tmp_path, monkeypatch, argv, name="plain")
        out = tmp_path / "numpy.jsonl"
        code = _run(
            tmp_path,
            monkeypatch,
            [*argv, "--backend", "numpy", "--out", str(out)],
        )
        assert code == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_bound_campaign_is_byte_identical(self, tmp_path, monkeypatch):
        argv = _FAMILY_CAMPAIGNS["bound"]
        plain = self._baseline(tmp_path, monkeypatch, argv)
        out = tmp_path / "numpy.jsonl"
        code = _run(
            tmp_path,
            monkeypatch,
            [*argv, "--backend", "numpy", "--out", str(out)],
        )
        assert code == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_killed_numpy_sweep_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        plain = self._baseline(tmp_path, monkeypatch, _SWEEP)
        out = tmp_path / "resumed.jsonl"
        store = tmp_path / "sweep.sqlite"
        argv = [*_SWEEP, "--backend", "numpy", "--out", str(out),
                "--store", str(store)]
        assert _run(
            tmp_path, monkeypatch, [*argv, "--fail-after", "4"]
        ) == 130
        assert _run(tmp_path, monkeypatch, [*argv, "--resume"]) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_sharded_numpy_runs_merge_byte_identical(
        self, tmp_path, monkeypatch
    ):
        plain = self._baseline(tmp_path, monkeypatch, _SWEEP)
        shards = []
        for i in (1, 2):
            store = tmp_path / f"shard{i}.sqlite"
            shards.append(str(store))
            code = _run(
                tmp_path,
                monkeypatch,
                [
                    *_SWEEP,
                    "--backend", "numpy",
                    "--out", str(tmp_path / f"shard{i}.jsonl"),
                    "--store", str(store),
                    "--shard", f"{i}/2",
                ],
            )
            assert code == 0
        merged = tmp_path / "merged.jsonl"
        code = _run(
            tmp_path,
            monkeypatch,
            [
                "merge", str(tmp_path / "merged.sqlite"), *shards,
                "--out", str(merged),
            ],
        )
        assert code == 0
        assert merged.read_bytes() == plain.read_bytes()


class TestStoreRecording:
    def test_store_records_the_default_backend(self, tmp_path, monkeypatch):
        store = tmp_path / "sweep.sqlite"
        code = _run(
            tmp_path,
            monkeypatch,
            [*_SWEEP, "--out", str(tmp_path / "o.jsonl"),
             "--store", str(store)],
        )
        assert code == 0
        with ResultStore(store) as opened:
            assert opened.backend_info == {
                "name": "vectorized",
                "exactness": "bit-identical",
            }

    @needs_numpy
    def test_store_records_the_selected_backend(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "sweep.sqlite"
        argv = [*_SWEEP, "--out", str(tmp_path / "o.jsonl"),
                "--store", str(store)]
        assert _run(
            tmp_path, monkeypatch, [*argv, "--backend", "numpy"]
        ) == 0
        with ResultStore(store) as opened:
            assert opened.backend_info["name"] == "numpy"
        # Bit-identical backends are interchangeable: resuming the
        # numpy-recorded store under the default succeeds and keeps
        # the first recording.
        assert _run(tmp_path, monkeypatch, [*argv, "--resume"]) == 0
        with ResultStore(store) as opened:
            assert opened.backend_info["name"] == "numpy"

    def test_store_recorded_under_numba_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        # Stores written by the removed numba backend record it as
        # bit-identical, so they resume under the default unchanged.
        plain = tmp_path / "plain.jsonl"
        assert _run(
            tmp_path, monkeypatch, [*_SWEEP, "--out", str(plain)]
        ) == 0
        store = tmp_path / "numba.sqlite"
        recorded = {"name": "numba", "exactness": "bit-identical"}
        with ResultStore(store) as opened:
            opened.set_backend_info(**recorded)
        out = tmp_path / "resumed.jsonl"
        argv = [*_SWEEP, "--out", str(out), "--store", str(store)]
        assert _run(
            tmp_path, monkeypatch, [*argv, "--fail-after", "2"]
        ) == 130
        assert _run(tmp_path, monkeypatch, [*argv, "--resume"]) == 0
        assert out.read_bytes() == plain.read_bytes()
        with ResultStore(store) as opened:
            assert opened.backend_info == recorded
