"""The serve pool's two knobs: `ServeConfig.workers` (concurrent job
slots; there is no per-request ``workers`` option) and
`ServeConfig.jobs`, the engine pool a served job's grid fans out over."""

import threading
from dataclasses import fields

import pytest

import repro.engine.engine as engine_module
from repro.api import RunRequest
from repro.api.options import ExecutionOptions
from repro.api.plan import plan_scenarios
from repro.engine import run_batch
from repro.serve.server import AnalysisServer, ServeConfig


def _server(tmp_path, **config) -> AnalysisServer:
    return AnalysisServer(
        ServeConfig(store=str(tmp_path / "serve.sqlite"), **config)
    )


class TestWorkersOption:
    def test_defaults_to_none(self):
        assert ServeConfig().workers is None
        # The per-request cap is gone: slots are the server's policy.
        assert "workers" not in {f.name for f in fields(ExecutionOptions)}
        with pytest.raises(TypeError):
            ExecutionOptions(workers=2)

    def test_accepts_positive_counts(self, tmp_path):
        assert _server(tmp_path, workers=1).stats()["workers"] == 1
        assert _server(tmp_path, workers=8).stats()["workers"] == 8

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_counts(self, tmp_path, bad):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _server(tmp_path, workers=bad)

    def test_round_trips_over_the_wire(self):
        from repro.api.wire import request_from_wire, request_to_wire

        request = RunRequest.make(
            "sweep", ExecutionOptions(jobs=3, fail_after=2), points=4
        )
        wire = request_to_wire(request)
        assert "workers" not in wire["options"]
        assert request_from_wire(wire) == request
        wire["options"]["workers"] = 3
        with pytest.raises(
            ValueError, match=r"unknown field\(s\): workers"
        ):
            request_from_wire(wire)


def _echo(scenario):
    return scenario


def _dispatched_chunks(monkeypatch, n: int, slots: int | None):
    """Run an ``n``-scenario served grid through the engine on a
    ``slots``-wide pool; returns (results, scenarios, dispatched index
    chunks).  Threads stand in for the pool's processes so the chunk
    recorder sees every submission."""
    request = RunRequest.family(
        "bound",
        axes={"q": {"grid": [50.0 + 10.0 * k for k in range(n)]}},
        defaults={"function": "gaussian1", "knots": 48},
    )
    plan = plan_scenarios(request.workload, request.params_dict())
    chunks: list[list[int]] = []
    lock = threading.Lock()
    real = engine_module._run_chunk_indexed

    def recording(worker, scenarios, indices):
        with lock:
            chunks.append(list(indices))
        return real(worker, scenarios, indices)

    monkeypatch.setattr(engine_module, "_run_chunk_indexed", recording)
    results = run_batch(
        _echo,
        plan.scenarios,
        max_workers=slots,
        group_by=plan.group_by,
    )
    return results, plan.scenarios, chunks


@pytest.mark.usefixtures("thread_pool")
class TestPlanFanout:
    """How a served job's grid fans out: a job runs on one slot and its
    fresh scenarios fan out over the engine pool that
    ``ServeConfig.jobs`` sizes.  Every pool worker gets work once the
    grid allows it, a pool of one runs inline, and the chunks cover the
    grid exactly once."""

    def test_even_split_uses_every_slot(self, monkeypatch):
        for n in (8, 100):
            _results, _scenarios, chunks = _dispatched_chunks(
                monkeypatch, n, 4
            )
            assert len(chunks) >= 4

    def test_single_slot_never_splits(self, monkeypatch):
        for slots in (None, 0, 1):
            results, scenarios, chunks = _dispatched_chunks(
                monkeypatch, 12, slots
            )
            assert chunks == []  # the inline path: no pool, no chunks
            assert results == list(scenarios)

    @pytest.mark.parametrize("n", range(1, 40))
    @pytest.mark.parametrize("slots", range(1, 6))
    def test_invariants_hold_everywhere(self, monkeypatch, n, slots):
        results, scenarios, chunks = _dispatched_chunks(
            monkeypatch, n, slots
        )
        assert results == list(scenarios)  # scenario order, always
        if slots == 1:
            assert chunks == []
            return
        assert all(chunks)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(n))
        assert len(chunks) >= min(n, slots)
