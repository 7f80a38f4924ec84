"""Fixtures for the serve test layer: live servers, solo baselines and
held jobs."""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import hold_family
import pytest

from repro.api import RunRequest, Workbench
from repro.api.options import ExecutionOptions, SinkSpec
import repro.serve.server as server_module
from repro.engine import registry
from repro.serve import ServeConfig, start_server
from repro.serve.server import ServerHandle
from repro.store import ResultStore


@pytest.fixture
def serve_factory(tmp_path):
    """Start real servers on free ports; stops them all at teardown.

    Every server of one test shares ``tmp_path/serve.sqlite`` unless a
    ``store`` override is given — the cross-client dedup scenarios need
    exactly that sharing.
    """
    handles: list[ServerHandle] = []

    def factory(**overrides) -> ServerHandle:
        overrides.setdefault("store", str(tmp_path / "serve.sqlite"))
        handle = start_server(ServeConfig(port=0, **overrides))
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        handle.stop()


@pytest.fixture
def hold(serve_factory, monkeypatch):
    """Register the ``hold`` family (see ``hold_family.py``) for one
    test; yields the event that releases its workers.

    Teardown releases it before the servers stop (this fixture depends
    on ``serve_factory``, so it is torn down first), so no held job
    outlives its test.
    """
    release = multiprocessing.Event()
    monkeypatch.setattr(hold_family, "RELEASE", release)
    monkeypatch.setitem(registry._FAMILIES, "hold", hold_family.HOLD_FAMILY)
    yield release
    release.set()


@pytest.fixture
def traced_stores(monkeypatch):
    """Every store the server opens, each logging its SQL statements."""
    opened: list[ResultStore] = []

    class TracedStore(ResultStore):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.statements: list[str] = []
            self._connection().set_trace_callback(self.statements.append)
            opened.append(self)

    monkeypatch.setattr(server_module, "ResultStore", TracedStore)
    return opened


@pytest.fixture
def solo_lines(tmp_path):
    """Evaluate a request locally; returns its JSONL sink lines.

    The baseline for the byte-identity assertions: a served stream must
    equal what a solo :meth:`Workbench.run` writes for the same
    request.  Uses a store and sink of its own under ``tmp_path`` so it
    never shares state with the servers under test.
    """

    def runner(request: RunRequest, tag: str = "solo") -> list[str]:
        out = tmp_path / f"{tag}.jsonl"
        local = RunRequest(
            workload=request.workload,
            params=request.params,
            options=ExecutionOptions(
                store=str(tmp_path / f"{tag}.sqlite"),
                sinks=(SinkSpec(str(out)),),
            ),
        )
        result = Workbench().run(local)
        assert result.ok, result
        return Path(out).read_text().splitlines()

    return runner
