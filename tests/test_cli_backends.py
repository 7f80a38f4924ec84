"""Removed kernel-backend values, end to end through the CLI.

Algorithm 1 has one exact kernel, so the kernel-backend registry, the
``backends`` command and the ``--backend`` flag are gone.  Stores that
older builds stamped with a backend (``numba``, ``numpy``,
``vectorized``, ``scalar``) must still run, resume and merge
byte-identically across every scenario family, with their ``backend``
meta row left as it was, and ``--backend`` must be refused.
"""

import json
import sqlite3

import pytest

from repro.api import ExecutionOptions
from repro.api.workloads import get_workload, workload_names
from repro.cli import main
from repro.store import ResultStore

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


def _stamp(path, name):
    """A store as an older build left it: empty, with a backend row."""
    recorded = json.dumps(
        {"exactness": "bit-identical", "name": name}, sort_keys=True
    )
    ResultStore(path).close()
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('backend', ?)", (recorded,)
        )
    connection.close()
    return recorded


def _backend_row(path):
    connection = sqlite3.connect(path)
    try:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'backend'"
        ).fetchone()
    finally:
        connection.close()
    return None if row is None else row[0]


def _plain(tmp_path, monkeypatch, argv=_SWEEP):
    plain = tmp_path / "plain.jsonl"
    assert _run(tmp_path, monkeypatch, [*argv, "--out", str(plain)]) == 0
    return plain


def _run_stamped(tmp_path, monkeypatch, argv, name="numpy"):
    """Run ``argv`` on a store stamped ``name``; output bytes must equal
    a storeless run's and the stamp must survive."""
    plain = _plain(tmp_path, monkeypatch, argv)
    store = tmp_path / f"{name}.sqlite"
    recorded = _stamp(store, name)
    out = tmp_path / "stamped.jsonl"
    code = _run(
        tmp_path, monkeypatch, [*argv, "--out", str(out), "--store", str(store)]
    )
    assert code == 0
    assert out.read_bytes() == plain.read_bytes()
    assert _backend_row(store) == recorded


def _resume_stamped(tmp_path, monkeypatch, name):
    plain = _plain(tmp_path, monkeypatch)
    store = tmp_path / f"{name}.sqlite"
    recorded = _stamp(store, name)
    out = tmp_path / "resumed.jsonl"
    argv = [*_SWEEP, "--out", str(out), "--store", str(store)]
    assert _run(tmp_path, monkeypatch, [*argv, "--fail-after", "2"]) == 130
    assert _run(tmp_path, monkeypatch, [*argv, "--resume"]) == 0
    assert out.read_bytes() == plain.read_bytes()
    assert _backend_row(store) == recorded


def _refused(tmp_path, monkeypatch, capsys, argv):
    with pytest.raises(SystemExit) as exited:
        _run(tmp_path, monkeypatch, argv)
    assert exited.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestUniformFlag:
    """``--backend`` was once accepted by every workload; now none
    declares it, and argparse refuses it everywhere."""

    def test_every_workload_declares_the_backend_group(self):
        for name in workload_names():
            assert "backend" not in get_workload(name).flags, name

    def test_unknown_backend_exits_2_listing_the_registry(
        self, tmp_path, monkeypatch, capsys
    ):
        for name in ("bogus", "numba"):
            _refused(tmp_path, monkeypatch, capsys, [*_SWEEP, "--backend", name])

    def test_unavailable_backend_exits_2(self, tmp_path, monkeypatch, capsys):
        # The formerly registered names are refused like any other, on
        # the plain sweep and on campaigns alike.
        for argv in (_SWEEP, _FAMILY_CAMPAIGNS["bound"]):
            for name in ("numpy", "vectorized"):
                _refused(
                    tmp_path, monkeypatch, capsys, [*argv, "--backend", name]
                )

    def test_non_engine_workloads_accept_the_flag(
        self, tmp_path, monkeypatch, capsys
    ):
        # Workloads outside the engine hot path run as before, but no
        # longer take --backend either.
        assert _run(tmp_path, monkeypatch, ["fig2"]) == 0
        assert "naive violated" in capsys.readouterr().out
        _refused(
            tmp_path, monkeypatch, capsys, ["fig2", "--backend", "vectorized"]
        )


class TestNumpyParity:
    """A store an older build stamped ``numpy`` serves output bytes equal
    to a storeless run's, everywhere."""

    def test_sweep_is_byte_identical(self, tmp_path, monkeypatch):
        _run_stamped(tmp_path, monkeypatch, _SWEEP)

    def test_sweep_with_jobs_is_byte_identical(self, tmp_path, monkeypatch):
        _run_stamped(tmp_path, monkeypatch, [*_SWEEP, "--jobs", "2"])

    @pytest.mark.parametrize("family", ["study", "sim", "edf-study"])
    def test_other_families_are_byte_identical(
        self, tmp_path, monkeypatch, family
    ):
        _run_stamped(tmp_path, monkeypatch, _FAMILY_CAMPAIGNS[family])

    def test_bound_campaign_is_byte_identical(self, tmp_path, monkeypatch):
        _run_stamped(tmp_path, monkeypatch, _FAMILY_CAMPAIGNS["bound"])

    def test_killed_numpy_sweep_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        _resume_stamped(tmp_path, monkeypatch, "numpy")

    def test_sharded_numpy_runs_merge_byte_identical(
        self, tmp_path, monkeypatch
    ):
        # Shards stamped by different removed backends merge as one.
        plain = _plain(tmp_path, monkeypatch)
        shards = []
        for i, name in ((1, "numpy"), (2, "vectorized")):
            store = tmp_path / f"shard{i}.sqlite"
            recorded = _stamp(store, name)
            code = _run(
                tmp_path,
                monkeypatch,
                [*_SWEEP, "--store", str(store), "--shard", f"{i}/2"],
            )
            assert code == 0
            assert _backend_row(store) == recorded
            shards.append(str(store))
        merged = tmp_path / "merged.jsonl"
        code = _run(
            tmp_path,
            monkeypatch,
            ["merge", str(tmp_path / "merged.sqlite"), *shards, "--out", str(merged)],
        )
        assert code == 0
        assert merged.read_bytes() == plain.read_bytes()


class TestStoreRecording:
    def test_store_records_the_default_backend(self, tmp_path, monkeypatch):
        # There is no backend to record any more: new stores carry no
        # backend meta row.
        store = tmp_path / "sweep.sqlite"
        argv = [*_SWEEP, "--out", str(tmp_path / "o.jsonl"), "--store", str(store)]
        assert _run(tmp_path, monkeypatch, argv) == 0
        assert _backend_row(store) is None

    def test_store_records_the_selected_backend(self, tmp_path, monkeypatch):
        # The backend an older build selected stays recorded, byte for
        # byte, through a run and a resume.
        store = tmp_path / "sweep.sqlite"
        recorded = _stamp(store, "numpy")
        argv = [*_SWEEP, "--out", str(tmp_path / "o.jsonl"), "--store", str(store)]
        assert _run(tmp_path, monkeypatch, argv) == 0
        assert _backend_row(store) == recorded
        assert _run(tmp_path, monkeypatch, [*argv, "--resume"]) == 0
        assert _backend_row(store) == recorded

    def test_store_recorded_under_numba_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        _resume_stamped(tmp_path, monkeypatch, "numba")

    @pytest.mark.parametrize("name", ["numpy", "vectorized", "scalar"])
    def test_store_recorded_under_a_removed_backend_resumes_byte_identical(
        self, tmp_path, monkeypatch, name
    ):
        _resume_stamped(tmp_path, monkeypatch, name)


class TestRemovedFlag:
    def test_backends_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["backends"])
        assert exited.value.code == 2
        assert "invalid choice: 'backends'" in capsys.readouterr().err

    def test_execution_options_have_no_backend(self):
        with pytest.raises(TypeError):
            ExecutionOptions(backend="numpy")
