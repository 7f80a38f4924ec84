"""End-to-end serve tests: concurrency, dedup, byte-identity, resume.

The contracts under test are the tentpole guarantees of the job
server:

* N concurrent clients with overlapping grids share one store and one
  executor — **each scenario is computed at most once** (cache stats +
  single-flight counters prove it);
* every client's record stream is **byte-identical** to a solo
  :meth:`repro.api.Workbench.run` of the same request;
* streams are **resumable**: a reconnecting client supplying its last
  received record count gets exactly the remaining records.
"""

from __future__ import annotations

import json
import sqlite3
from concurrent.futures import ThreadPoolExecutor

from repro.api import RunRequest
from repro.api.plan import plan_scenarios
from repro.api.workloads import get_workload
from repro.cli import main
from repro.serve import ServeClient
from repro.serve.jobs import job_id_for
from repro.store import ResultStore, package_fingerprint

#: Two overlapping two-point grids: q=100 is shared, 3 unique scenarios.
GRID_A = RunRequest.family(
    "bound",
    axes={"q": {"grid": [50.0, 100.0]}},
    defaults={"function": "gaussian1", "knots": 48},
)
GRID_B = RunRequest.family(
    "bound",
    axes={"q": {"grid": [100.0, 150.0]}},
    defaults={"function": "gaussian1", "knots": 48},
)


def _serve_lines(handle, request: RunRequest) -> list[str]:
    with ServeClient(handle.host, handle.port) as client:
        return client.run(request)


class TestConcurrentClients:
    def test_overlapping_grids_compute_each_scenario_once(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory()
        requests = [GRID_A, GRID_A, GRID_B, GRID_B]
        with ThreadPoolExecutor(max_workers=4) as pool:
            streams = list(
                pool.map(lambda r: _serve_lines(handle, r), requests)
            )

        expected_a = solo_lines(GRID_A, tag="solo-a")
        expected_b = solo_lines(GRID_B, tag="solo-b")
        assert streams[0] == expected_a
        assert streams[1] == expected_a
        assert streams[2] == expected_b
        assert streams[3] == expected_b

        with ServeClient(handle.host, handle.port) as client:
            status = client.status()
        # 3 unique scenarios across both grids; the shared q=100 row is
        # computed by whichever job ran first and cached for the other.
        assert status["scenarios_computed"] == 3
        assert status["scenarios_cached"] == 1
        # The duplicate submissions never became third/fourth jobs.
        assert status["submitted"] == 4
        assert status["singleflight_hits"] + status["replays"] == 2
        assert status["jobs"]["done"] == 2
        assert status["jobs"]["failed"] == 0

    def test_overlapping_grids_compute_once_across_the_pool(
        self, serve_factory, solo_lines
    ) -> None:
        # Same contract as above, but with four genuine pool slots:
        # scenario claims (not accidental serialization through one
        # worker) are what keep the computed/cached counts exact.
        handle = serve_factory(workers=4)
        requests = [GRID_A, GRID_A, GRID_B, GRID_B]
        with ThreadPoolExecutor(max_workers=4) as pool:
            streams = list(
                pool.map(lambda r: _serve_lines(handle, r), requests)
            )

        expected_a = solo_lines(GRID_A, tag="solo-a")
        expected_b = solo_lines(GRID_B, tag="solo-b")
        assert streams[0] == expected_a
        assert streams[1] == expected_a
        assert streams[2] == expected_b
        assert streams[3] == expected_b

        with ServeClient(handle.host, handle.port) as client:
            status = client.status()
        assert status["workers"] == 4
        assert status["scenarios_computed"] == 3
        assert status["scenarios_cached"] == 1
        assert status["submitted"] == 4
        assert status["singleflight_hits"] + status["replays"] == 2
        assert status["jobs"]["done"] == 2
        assert status["jobs"]["failed"] == 0

    def test_warm_server_serves_everything_from_cache(
        self, serve_factory
    ) -> None:
        handle = serve_factory()
        first = _serve_lines(handle, GRID_A)
        handle.stop()

        # A fresh server over the same store: all cache hits, no work.
        reborn = serve_factory()
        assert _serve_lines(reborn, GRID_A) == first
        with ServeClient(reborn.host, reborn.port) as client:
            status = client.status()
        assert status["scenarios_computed"] == 0
        assert status["scenarios_cached"] == 2


class TestResume:
    def test_reconnect_with_offset_gets_exact_remaining_records(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(GRID_A)
            head = [next(stream)]  # take one record, then vanish
            job_id = stream.job
            assert stream.received == 1

        with ServeClient(handle.host, handle.port) as client:
            resumed = client.resume(job_id, last_record=1)
            tail = resumed.lines()
            assert resumed.dedup == "resume"
            assert resumed.end is not None and resumed.end["total"] == 2

        assert head + tail == solo_lines(GRID_A)

    def test_resume_from_zero_replays_the_full_stream(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(GRID_A)
            job_id = stream.job
            stream.lines()  # ops are sequential: drain before resuming
            assert client.resume(job_id, 0).lines() == solo_lines(GRID_A)


class TestOldJobRows:
    """Servers once wrote one ``job:<id>`` meta row per job; stores
    that carry them must keep serving and merging, rows untouched."""

    @staticmethod
    def _job_rows(path) -> list[tuple[str, str]]:
        connection = sqlite3.connect(path)
        try:
            return connection.execute(
                "SELECT key, value FROM meta WHERE key LIKE 'job:%' "
                "ORDER BY key"
            ).fetchall()
        finally:
            connection.close()

    def test_store_with_job_rows_serves_and_merges(
        self, serve_factory, solo_lines, tmp_path, monkeypatch
    ) -> None:
        store_path = tmp_path / "serve.sqlite"
        fingerprint = package_fingerprint("repro")
        ResultStore(store_path, fingerprint=fingerprint).close()
        rows = []
        for request in (GRID_A, GRID_B):
            params = get_workload("campaign").resolve_params(
                request.params_dict()
            )
            manifest = plan_scenarios("campaign", params).manifest
            rows.append((
                "job:" + job_id_for("campaign", params, fingerprint),
                json.dumps(manifest, sort_keys=True, allow_nan=False),
            ))
        rows.sort()
        connection = sqlite3.connect(store_path)
        with connection:
            connection.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)", rows
            )
        connection.close()

        handle = serve_factory()
        assert _serve_lines(handle, GRID_A) == solo_lines(GRID_A)
        handle.stop()
        assert self._job_rows(store_path) == rows

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        merged = tmp_path / "merged.sqlite"
        assert main(["merge", str(merged), str(store_path)]) == 0
        with ResultStore(merged) as target:
            assert len(target) == 2
        assert self._job_rows(store_path) == rows


class TestSweepWorkload:
    def test_sweep_requests_are_servable_too(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory()
        request = RunRequest.make("sweep", points=3, knots=24)
        assert _serve_lines(handle, request) == solo_lines(request)

    def test_bool_count_is_a_bad_request(self, serve_factory) -> None:
        # JSON true is not the count 1: it must neither start a job nor
        # reach a manifest under an id of its own.
        from repro.api.wire import request_to_wire
        from repro.serve.protocol import encode_frame

        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            wire = request_to_wire(
                RunRequest.make("sweep", points=1, knots=24)
            )
            wire["params"]["points"] = True
            frame = client.send_raw(
                encode_frame({"op": "submit", "request": wire})
            )
            assert frame["code"] == "bad-request"
            assert "expects int" in frame["message"]
            assert client.status()["submitted"] == 0


class TestBackendOption:
    """The kernel-backend option is gone: a wire ``backend`` field is a
    ``bad-request``, and a store an older build stamped with a backend
    still serves byte-identical streams."""

    def test_backend_never_enters_the_job_id(self, serve_factory) -> None:
        # A backend option is refused outright, so it can neither split
        # a grid into a second job nor disturb the first: the plain
        # grid resubmitted after the refusal replays the same job.
        from repro.api.wire import request_to_wire
        from repro.serve.protocol import encode_frame

        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            plain = client.submit(GRID_A)
            plain_lines = plain.lines()
            wire = request_to_wire(GRID_A)
            wire["options"] = {"backend": "vectorized"}
            frame = client.send_raw(
                encode_frame({"op": "submit", "request": wire})
            )
            assert frame["code"] == "bad-request"
            again = client.submit(GRID_A)
            assert again.job == plain.job
            assert again.lines() == plain_lines
            assert client.status()["jobs"]["done"] == 1

    def test_unknown_backend_is_rejected_before_enqueue(
        self, serve_factory
    ) -> None:
        # A client-side ExecutionOptions has no backend field any more,
        # so craft the wire frame by hand: the server must reject it
        # (bad-request, no job) rather than crash the executor — for
        # the formerly registered names as much as for a bogus one.
        from repro.api.wire import request_to_wire
        from repro.serve.protocol import encode_frame

        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            for name in ("bogus", "numba", "numpy", "vectorized", "scalar"):
                wire = request_to_wire(GRID_A)
                wire["options"] = {"backend": name}
                frame = client.send_raw(
                    encode_frame({"op": "submit", "request": wire})
                )
                assert frame["code"] == "bad-request"
                assert frame["message"] == (
                    "wire options carry unknown field(s): backend"
                )
            status = client.status()
            assert status["jobs"]["done"] == 0
            assert status["submitted"] == 0

    def test_numpy_backend_stream_matches_solo(
        self, serve_factory, solo_lines, tmp_path
    ) -> None:
        # A store an older build stamped "numpy" serves the solo
        # stream, and its stamp is left as it was.
        import json
        import sqlite3

        store = tmp_path / "stamped.sqlite"
        ResultStore(store).close()
        recorded = json.dumps(
            {"exactness": "bit-identical", "name": "numpy"}, sort_keys=True
        )
        connection = sqlite3.connect(store)
        with connection:
            connection.execute(
                "INSERT INTO meta (key, value) VALUES ('backend', ?)",
                (recorded,),
            )
        connection.close()
        handle = serve_factory(store=str(store))
        assert _serve_lines(handle, GRID_A) == solo_lines(GRID_A)
        handle.stop()
        connection = sqlite3.connect(store)
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'backend'"
        ).fetchone()
        connection.close()
        assert row == (recorded,)


#: An 8-scenario grid: wider than a 4-slot pool, and split into chunks
#: by the engine pool of a ``jobs=2`` server.
GRID_WIDE = RunRequest.family(
    "bound",
    axes={
        "q": {"linspace": {"start": 50.0, "stop": 400.0, "points": 8}}
    },
    defaults={"function": "gaussian1", "knots": 48},
)


class TestDefaultWorkers:
    """The default slot count follows the usable CPUs, capped."""

    def test_follows_the_affinity_mask(self, monkeypatch) -> None:
        from repro.serve.server import default_workers

        monkeypatch.setattr("os.cpu_count", lambda: 16)
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert default_workers() == 1

    def test_is_capped(self, monkeypatch) -> None:
        from repro.serve.server import default_workers

        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: set(range(32)),
            raising=False,
        )
        assert default_workers() == 8


class TestWorkerPool:
    """A job runs on one slot, in-process or on the engine pool that
    ``jobs`` sizes: the same bytes either way."""

    def test_fanned_out_job_streams_byte_identical_to_solo(
        self, serve_factory, solo_lines
    ) -> None:
        import time

        handle = serve_factory(workers=4)
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(GRID_WIDE)
            lines = stream.lines()
            assert stream.end is not None
            assert stream.end["total"] == 8
            assert stream.end["computed"] == 8
            assert stream.end["cached"] == 0
            assert client.status()["workers"] == 4
        assert lines == solo_lines(GRID_WIDE, tag="solo-wide")
        # The slot is handed back once the job finishes; the end frame
        # can beat the executor's cleanup by a few milliseconds, so the
        # gauge is polled, not read once.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            with ServeClient(handle.host, handle.port) as client:
                if client.status()["busy_slots"] == 0:
                    break
            time.sleep(0.02)
        else:
            raise AssertionError("pool slots were not released")

    def test_fanned_out_job_resumes_from_an_offset(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory(workers=4)
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(GRID_WIDE)
            head = [next(stream), next(stream), next(stream)]
            job_id = stream.job

        with ServeClient(handle.host, handle.port) as client:
            tail = client.resume(job_id, last_record=3).lines()
        assert head + tail == solo_lines(GRID_WIDE, tag="solo-wide")

    def test_workers_option_never_enters_the_job_id(
        self, serve_factory
    ) -> None:
        # The per-request workers cap is gone, like ``backend``: a wire
        # ``workers`` field is a bad-request that neither starts a job
        # nor disturbs the plain one, which still replays.
        from repro.api.wire import request_to_wire
        from repro.serve.protocol import encode_frame

        handle = serve_factory(workers=4)
        with ServeClient(handle.host, handle.port) as client:
            first = client.submit(GRID_WIDE)
            first_lines = first.lines()
            wire = request_to_wire(GRID_WIDE)
            wire["options"] = {"workers": 4}
            frame = client.send_raw(
                encode_frame({"op": "submit", "request": wire})
            )
            assert frame["code"] == "bad-request"
            assert frame["message"] == (
                "wire options carry unknown field(s): workers"
            )
            second = client.submit(GRID_WIDE)
            assert second.job == first.job
            assert second.dedup == "replay"
            assert second.lines() == first_lines
            assert client.status()["submitted"] == 2

    def test_engine_pool_job_streams_byte_identical_to_solo(
        self, serve_factory, solo_lines
    ) -> None:
        # jobs=2: the job's fresh scenarios run on the engine's process
        # pool, the one intra-job parallelism the server has.
        handle = serve_factory(jobs=2)
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(GRID_WIDE)
            lines = stream.lines()
            assert stream.end is not None
            assert stream.end["computed"] == 8
        assert lines == solo_lines(GRID_WIDE, tag="solo-wide")

    def test_client_shard_requests_pass_through_unsplit(
        self, serve_factory, solo_lines
    ) -> None:
        # Submitted shard options are server policy to drop (a serve
        # job always addresses its full grid): the full stream, not a
        # slice.
        from repro.api.options import ExecutionOptions

        handle = serve_factory(workers=4)
        sharded = RunRequest(
            workload=GRID_WIDE.workload,
            params=GRID_WIDE.params,
            options=ExecutionOptions(shard="1/2"),
        )
        assert _serve_lines(handle, sharded) == solo_lines(
            GRID_WIDE, tag="solo-wide"
        )
