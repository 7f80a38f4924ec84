"""Pool slots: one long-lived store connection each, one commit per job.

Every slot thread opens its store connection on its first job and
keeps it until the server stops.  These tests pin the contracts that
make that safe: a killed job still leaves its manifest and checkpointed
prefix committed, the next job on the slot streams byte-exact, a job
ending in an unexpected error drops the connection so the next one
reopens it, no connection outlives ``stop()`` — and the stream loop
never ends a job's stream short of its last record.
"""

from __future__ import annotations

import asyncio
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.serve.server as server_module
from repro.api import RunRequest
from repro.api.options import ExecutionOptions
from repro.serve import ServeClient, ServeConfig, ServeError
from repro.serve.jobs import Job
from repro.serve.server import AnalysisServer
from repro.store import ResultStore


def _bound(*qs: float) -> RunRequest:
    return RunRequest.family(
        "bound",
        axes={"q": {"grid": list(qs)}},
        defaults={"function": "gaussian1", "knots": 48},
    )


def _commits(store: ResultStore) -> int:
    return store.statements.count("COMMIT")  # type: ignore[attr-defined]


class TestSlotConnection:
    def test_three_jobs_on_one_slot_share_a_connection_one_commit_each(
        self, serve_factory, traced_stores, solo_lines
    ) -> None:
        handle = serve_factory(workers=1)
        requests = [_bound(60.0, 120.0), _bound(80.0), _bound(90.0, 140.0)]
        assert traced_stores == []  # start-up opens no store
        with ServeClient(handle.host, handle.port) as client:
            for n, request in enumerate(requests):
                lines = client.run(request)
                assert lines == solo_lines(request, tag=f"solo{n}")
        handle.stop()

        assert len(traced_stores) == 1
        assert _commits(traced_stores[0]) == len(requests)

    def test_killed_job_leaves_its_prefix_and_the_slot_runs_on(
        self, serve_factory, traced_stores, solo_lines, tmp_path
    ) -> None:
        store_path = tmp_path / "serve.sqlite"
        handle = serve_factory(workers=1, allow_fail_after=True)
        victim = _bound(60.0, 120.0, 180.0)
        wounded = RunRequest(
            workload=victim.workload,
            params=victim.params,
            options=ExecutionOptions(fail_after=1),
        )
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError) as info:
                client.run(wounded)
            assert info.value.code == "job-failed"
            # Committed while the slot's connection stays open: another
            # connection already sees the prefix.
            with ResultStore(store_path) as peek:
                assert len(peek) == 1
            # Same slot, same connection: the next job is byte-exact,
            # so the kill left no transaction open behind it.
            follower = _bound(75.0, 150.0)
            assert client.run(follower) == solo_lines(follower)
        handle.stop()

        assert len(traced_stores) == 1
        assert not Path(f"{store_path}-wal").exists()
        with ResultStore(store_path) as store:
            assert len(store) == 1 + 2

    def test_unexpected_error_closes_the_connection_and_the_next_job_reopens(
        self, serve_factory, traced_stores, solo_lines, monkeypatch
    ) -> None:
        real = server_module.run_cached_batch
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("disk on fire")
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "run_cached_batch", flaky)
        handle = serve_factory(workers=1)
        broken, healthy = _bound(60.0), _bound(70.0, 110.0)
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError) as info:
                client.run(broken)
            assert info.value.code == "job-failed"
            assert "RuntimeError: disk on fire" in str(info.value)
            assert client.run(healthy) == solo_lines(healthy)
        handle.stop()

        assert len(traced_stores) == 2
        first, second = traced_stores
        assert first._conn is None  # closed by the failing job
        assert second._conn is None  # closed by stop()


class TestSlotStress:
    def test_overlapping_jobs_on_more_slots_than_cores_lose_nothing(
        self, serve_factory, traced_stores, tmp_path
    ) -> None:
        """Many slots, rapid thread switches: every stream is complete,
        each distinct scenario is computed once, and every slot and
        connection is handed back — ``stop()`` closes them all."""
        handle = serve_factory(workers=4)
        grids = [
            [50.0 + 10.0 * (i + k) for k in range(3)] for i in range(12)
        ]

        def submit(grid: list[float]) -> list[str]:
            with ServeClient(handle.host, handle.port, timeout=60) as client:
                return client.run(_bound(*grid))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                streams = list(pool.map(submit, grids, timeout=120))
        finally:
            sys.setswitchinterval(previous)
        stats = handle.stop()

        assert [len(lines) for lines in streams] == [3] * len(grids)
        distinct = {q for grid in grids for q in grid}
        assert stats["scenarios_computed"] == len(distinct)
        assert stats["busy_slots"] == 0
        assert 1 <= len(traced_stores) <= 4
        assert all(store._conn is None for store in traced_stores)
        assert not Path(f"{tmp_path / 'serve.sqlite'}-wal").exists()


class _Writer:
    """A stream writer that keeps the frames it was sent (one write
    may carry several newline-terminated frames)."""

    def __init__(self) -> None:
        self.frames: list[dict] = []

    def write(self, data: bytes) -> None:
        self.frames.extend(json.loads(line) for line in data.splitlines())

    async def drain(self) -> None:
        pass

    def records(self) -> int:
        return sum(1 for f in self.frames if f["frame"] == "record")


class _RacyLines(list):
    """A job's line list that lands the job's last line in the gap.

    The first ``len()`` taken after every line already present was
    streamed appends the final line and completes the job — exactly
    once, and *after* counting, so the caller sees the old length: the
    interleaving where the job thread finishes between the stream
    loop's drain and its check of the job state.
    """

    def __init__(self, lines, job: Job, writer: _Writer, final: str):
        super().__init__(lines)
        self._job, self._writer, self._final = job, writer, final
        self._fired = False

    def __len__(self) -> int:
        n = super().__len__()
        if not self._fired and self._writer.records() == n:
            self._fired = True
            self._job.complete([self._final], n + 1, 0, n + 1)
        return n


class TestStreamDrainRace:
    def test_a_line_landing_as_the_job_finishes_is_still_streamed(
        self, tmp_path
    ) -> None:
        server = AnalysisServer(ServeConfig(store=str(tmp_path / "s.sqlite")))
        lines = [f'{{"n": {n}}}' for n in range(7)]

        async def main() -> _Writer:
            job = Job("job", _bound(60.0), asyncio.get_running_loop())
            job.state = "running"
            writer = _Writer()
            job.lines = _RacyLines(lines, job, writer, '{"n": 7}')
            await asyncio.wait_for(
                server._stream(
                    job, asyncio.StreamReader(), writer, cursor=0
                ),
                timeout=10,
            )
            return writer

        writer = asyncio.run(main())
        records = [f["line"] for f in writer.frames if f["frame"] == "record"]
        assert records == [*lines, '{"n": 7}']
        assert writer.frames[-1]["frame"] == "end"
        assert writer.frames[-1]["total"] == 8
