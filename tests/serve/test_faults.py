"""Fault injection against a live server: kills, disconnects, garbage.

Each test wounds the system somewhere specific and asserts the two
recovery invariants: the failure is reported as a *clean error frame*
(stable code, no dropped server), and a resubmit/resume afterwards
yields byte-exact results — because completed scenarios were
checkpointed in the shared store, never lost.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import RunRequest
from repro.api.options import ExecutionOptions
from repro.engine import JobCancelled, MemorySink, run_cached_batch
from repro.engine.sweeps import evaluate_bound_scenario, q_sweep_scenarios
from repro.serve import ServeClient, ServeError
from repro.serve.protocol import encode_frame
from repro.store import ResultStore

CHEAP = RunRequest.family(
    "bound",
    axes={"q": {"grid": [60.0, 120.0]}},
    defaults={"function": "gaussian1", "knots": 48},
)

#: Eight scenarios of the ``hold`` family: the job stays running until
#: the test sets the ``hold`` fixture's event, however fast the host.
HELD = RunRequest.family(
    "hold",
    axes={"q": {"grid": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]}},
)

#: A real eight-scenario bound job (~1s of work), for the faults that
#: need no timing: a fault-injected kill and a mid-stream disconnect.
SLOW = RunRequest.family(
    "bound",
    axes={
        "q": {"linspace": {"start": 50.0, "stop": 400.0, "points": 8}}
    },
    defaults={"function": "gaussian1", "knots": 131072},
)


def _wait_for(condition, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.02)
    raise AssertionError("condition not met before timeout")


def _status(handle) -> dict:
    with ServeClient(handle.host, handle.port) as client:
        return client.status()


def _run_held(handle) -> list[str]:
    with ServeClient(handle.host, handle.port) as client:
        return client.run(HELD)


class TestMidJobKill:
    def test_fail_after_kills_the_job_and_restart_completes_it(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory(allow_fail_after=True)
        wounded = RunRequest(
            workload=CHEAP.workload,
            params=CHEAP.params,
            options=ExecutionOptions(fail_after=1),
        )
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError) as info:
                client.run(wounded)
            assert info.value.code == "job-failed"
            assert "checkpointed" in str(info.value)
            # Same connection survives the failed job.
            assert client.ping()

        # Resubmitting (without the fault) restarts the same job id and
        # completes; the restarted stream is byte-exact.
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(CHEAP)
            assert stream.dedup == "restart"
            assert stream.lines() == solo_lines(CHEAP)

        status = _status(handle)
        assert status["restarts"] == 1
        assert status["jobs"]["done"] == 1
        assert status["jobs"]["failed"] == 0

    def test_fail_after_is_inert_unless_the_server_opts_in(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory()  # allow_fail_after defaults to False
        wounded = RunRequest(
            workload=CHEAP.workload,
            params=CHEAP.params,
            options=ExecutionOptions(fail_after=1),
        )
        with ServeClient(handle.host, handle.port) as client:
            assert client.run(wounded) == solo_lines(CHEAP)


class TestPoolFaults:
    """Faults on a 4-slot pool and on the engine pool (``jobs=2``).

    A job runs on one slot however many are idle; a kill or cancel
    still leaves its checkpointed scenarios for a byte-exact restart.
    """

    def test_killed_job_fails_and_restart_resumes(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory(workers=4, allow_fail_after=True)
        wounded = RunRequest(
            workload=SLOW.workload,
            params=SLOW.params,
            options=ExecutionOptions(fail_after=1),
        )
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError) as info:
                client.run(wounded)
            # The message carries the resume contract.
            assert info.value.code == "job-failed"
            assert "checkpointed" in str(info.value)
            # The slot was handed back (the error frame can race the
            # executor's cleanup by a few milliseconds, hence the wait).
            _wait_for(lambda: _status(handle)["busy_slots"] == 0)
            assert client.status()["jobs"]["failed"] == 1

        # The killed job checkpointed its prefix, so the restart
        # serves at least one scenario from cache and is byte-exact.
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(SLOW)
            assert stream.dedup == "restart"
            assert stream.lines() == solo_lines(SLOW, tag="solo-slow")
            assert stream.end is not None
            assert stream.end["cached"] >= 1
            assert (
                stream.end["cached"] + stream.end["computed"]
                == stream.end["total"]
                == 8
            )

    def test_cancel_on_a_four_slot_pool_restarts_byte_exact(
        self, serve_factory, hold, solo_lines
    ) -> None:
        _cancel_held_then_restart(serve_factory(workers=4), hold, solo_lines)

    def test_engine_pool_cancel_restarts_byte_exact(
        self, serve_factory, hold, solo_lines
    ) -> None:
        # The cancel reaches a job whose scenarios run on the engine's
        # process pool.
        _cancel_held_then_restart(serve_factory(jobs=2), hold, solo_lines)


def _cancel_held_then_restart(handle, hold, solo_lines) -> None:
    """Cancel a running ``HELD`` job, then check that its slot comes
    back and that a restart from its checkpoint is byte-exact."""
    job_id = _expected_job_id(HELD)
    with ThreadPoolExecutor(max_workers=1) as pool:
        victim = pool.submit(_run_held, handle)
        _wait_for(lambda: _status(handle)["jobs"]["running"] == 1)
        with ServeClient(handle.host, handle.port) as client:
            client.cancel(job_id)
        hold.set()  # the first record now meets the cancel
        with pytest.raises(ServeError) as info:
            victim.result()
        assert info.value.code == "job-cancelled"

    _wait_for(lambda: _status(handle)["busy_slots"] == 0)
    with ServeClient(handle.host, handle.port) as client:
        stream = client.submit(HELD)
        assert stream.dedup == "restart"
        assert stream.lines() == solo_lines(HELD, tag="solo-held")


class TestDisconnects:
    def test_queued_job_is_cancelled_when_its_only_client_vanishes(
        self, serve_factory, hold, solo_lines
    ) -> None:
        # workers=1: the second job must actually *queue* behind the
        # held one, whatever the host's core count.
        handle = serve_factory(workers=1)
        with ThreadPoolExecutor(max_workers=1) as pool:
            slow = pool.submit(_run_held, handle)
            _wait_for(lambda: _status(handle)["jobs"]["running"] == 1)

            deserter = ServeClient(handle.host, handle.port)
            stream = deserter.submit(CHEAP)
            assert stream.state == "queued"
            deserter.close()  # vanish before the job ever starts

            _wait_for(lambda: _status(handle)["jobs"]["cancelled"] == 1)
            hold.set()
            assert len(slow.result()) == 8  # the held job is unharmed

        # The abandoned job restarts cleanly on resubmission.
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(CHEAP)
            assert stream.dedup == "restart"
            assert stream.lines() == solo_lines(CHEAP)

    def test_vanished_queued_job_releases_its_queue_slot_immediately(
        self, serve_factory, hold, solo_lines
    ) -> None:
        # Regression: an EOF-cancelled queued job must give its queue
        # capacity back right away — with max_queued=1 the deserter's
        # job is the *only* slot, so the follow-up submission below
        # would be rejected with ``busy`` if teardown leaked it.
        handle = serve_factory(workers=1, max_queued=1)
        with ThreadPoolExecutor(max_workers=1) as pool:
            slow = pool.submit(_run_held, handle)
            _wait_for(lambda: _status(handle)["jobs"]["running"] == 1)

            deserter = ServeClient(handle.host, handle.port)
            stream = deserter.submit(CHEAP)
            assert stream.state == "queued"
            # The queue is now full: an independent grid bounces.
            other = RunRequest.family(
                "bound",
                axes={"q": {"grid": [70.0, 130.0]}},
                defaults={"function": "gaussian1", "knots": 48},
            )
            with ServeClient(handle.host, handle.port) as client:
                with pytest.raises(ServeError) as info:
                    client.run(other)
                assert info.value.code == "busy"

            deserter.close()  # vanish while still queued
            _wait_for(lambda: _status(handle)["jobs"]["cancelled"] == 1)

            # The slot is free again *while the held job still runs*:
            # the same submission that just bounced is now accepted.
            with ServeClient(handle.host, handle.port) as client:
                queued = client.submit(other)
                assert queued.state == "queued"
                hold.set()
                assert queued.lines() == solo_lines(other, tag="solo-other")
            assert len(slow.result()) == 8

        status = _status(handle)
        assert status["rejected"] == 1
        assert status["jobs"]["done"] == 2

    def test_disconnect_mid_stream_then_resume_yields_remaining_records(
        self, serve_factory, solo_lines
    ) -> None:
        handle = serve_factory()
        expected = solo_lines(SLOW, tag="solo-slow")

        client = ServeClient(handle.host, handle.port)
        stream = client.submit(SLOW)
        head = [next(stream), next(stream), next(stream)]
        job_id, received = stream.job, stream.received
        client.close()  # drop the connection mid-stream

        # The server keeps serving and the job keeps its records; a
        # resume from the last received offset is exactly the tail.
        _wait_for(lambda: _status(handle)["jobs"]["done"] == 1)
        with ServeClient(handle.host, handle.port) as client:
            tail = client.resume(job_id, last_record=received).lines()
        assert head + tail == expected
        assert len(tail) == len(expected) - 3


class TestCancellation:
    def test_cancelling_a_running_job_stops_it_between_records(
        self, serve_factory, hold, solo_lines
    ) -> None:
        handle = serve_factory(workers=1)
        job_id = _expected_job_id(HELD)
        with ThreadPoolExecutor(max_workers=1) as pool:
            victim = pool.submit(_run_held, handle)
            _wait_for(lambda: _status(handle)["jobs"]["running"] == 1)
            with ServeClient(handle.host, handle.port) as client:
                ack = client.cancel(job_id)
                assert ack == {"frame": "cancelled", "job": job_id}
            hold.set()
            with pytest.raises(ServeError) as info:
                victim.result()
            assert info.value.code == "job-cancelled"

        # Whatever completed before the cancel was checkpointed, so
        # the restarted job serves it from cache and the stream is
        # byte-exact regardless of where the cancel landed.
        with ServeClient(handle.host, handle.port) as client:
            stream = client.submit(HELD)
            assert stream.dedup == "restart"
            assert stream.lines() == solo_lines(HELD, tag="solo-held")

    def test_cancel_of_an_unknown_job_is_a_clean_error(
        self, serve_factory
    ) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError) as info:
                client.cancel("no-such-job")
            assert info.value.code == "unknown-job"
            assert client.ping()


def _expected_job_id(request: RunRequest) -> str:
    """Recompute a request's job id exactly as the server does.

    Job ids are content-addressed from (workload, resolved params)
    under the package fingerprint — no server round trip needed, which
    is itself part of the contract (any client can name a job a priori).
    """
    from repro.api.workloads import get_workload
    from repro.serve.jobs import job_id_for
    from repro.store.keys import package_fingerprint

    params = get_workload(request.workload).resolve_params(
        request.params_dict()
    )
    return job_id_for(
        request.workload, params, package_fingerprint("repro")
    )


class TestMalformedInput:
    def test_garbage_json_gets_an_error_frame_and_the_connection_lives(
        self, serve_factory
    ) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            frame = client.send_raw(b"this is not json\n")
            assert frame["frame"] == "error"
            assert frame["code"] == "bad-frame"
            assert client.ping()  # same connection still works

    def test_unknown_op_is_a_bad_frame(self, serve_factory) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            frame = client.send_raw(encode_frame({"op": "explode"}))
            assert frame["code"] == "bad-frame"
            assert client.ping()

    def test_oversized_frame_is_rejected_cleanly(
        self, serve_factory
    ) -> None:
        handle = serve_factory(line_limit=2048)
        with ServeClient(handle.host, handle.port) as client:
            # Far beyond even the reader buffer: the server reports,
            # resyncs at the next newline, and the connection lives.
            frame = client.send_raw(b"x" * 65536 + b"\n")
            assert frame["code"] == "oversized"
            assert client.ping()
            # Between the protocol limit and the reader slack: same
            # error, same survival, via the decode-time check.
            frame = client.send_raw(b'{"op":"ping","pad":"' + b"y" * 2100 + b'"}\n')
            assert frame["code"] == "oversized"
            assert client.ping()
        with ServeClient(handle.host, handle.port) as client:
            assert client.ping()

    def test_bad_submit_payloads_are_bad_requests(
        self, serve_factory
    ) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            frame = client.send_raw(
                encode_frame({"op": "submit", "request": "nope"})
            )
            assert frame["code"] == "bad-request"
            frame = client.send_raw(encode_frame({"op": "submit"}))
            assert frame["code"] == "bad-request"
            with pytest.raises(ServeError) as info:
                client.run(RunRequest.make("sweep", points=4, bogus=1))
            assert info.value.code == "bad-request"
            assert client.ping()

    def test_non_plannable_workloads_are_refused(
        self, serve_factory
    ) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            for workload in ("fig5", "definitely-not-registered"):
                with pytest.raises(ServeError) as info:
                    client.run(RunRequest.make(workload))
                assert info.value.code == "unsupported-workload"


class TestBackpressure:
    def test_full_queue_rejects_with_busy(self, serve_factory) -> None:
        handle = serve_factory(max_queued=0)
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError) as info:
                client.run(CHEAP)
            assert info.value.code == "busy"
            assert "retry" in str(info.value)
            assert client.ping()
        assert _status(handle)["rejected"] == 1

    def test_resume_validates_job_and_offset(self, serve_factory) -> None:
        handle = serve_factory()
        with ServeClient(handle.host, handle.port) as client:
            job_id = (stream := client.submit(CHEAP)).job
            stream.lines()
            with pytest.raises(ServeError) as info:
                client.resume("missing", 0).lines()
            assert info.value.code == "unknown-job"
            with pytest.raises(ServeError) as info:
                client.resume(job_id, 99).lines()
            assert info.value.code == "bad-offset"
            with pytest.raises(ServeError) as info:
                client.resume(job_id, -1).lines()
            assert info.value.code == "bad-offset"


class TestEngineCancelSeam:
    """The engine-level contract the server's cancellation rides on."""

    def test_cancel_before_start_raises_without_work(
        self, tmp_path
    ) -> None:
        store = ResultStore(tmp_path / "s.sqlite", fingerprint="fp")
        try:
            with pytest.raises(JobCancelled, match="before evaluation"):
                run_cached_batch(
                    evaluate_bound_scenario,
                    q_sweep_scenarios([50.0], knots=32),
                    store,
                    cancel=lambda: True,
                )
        finally:
            store.close()

    def test_cancel_between_records_keeps_completed_work(
        self, tmp_path
    ) -> None:
        store = ResultStore(tmp_path / "s.sqlite", fingerprint="fp")
        scenarios = q_sweep_scenarios([50.0, 100.0, 150.0], knots=32)
        fired = {"n": 0}

        def cancel() -> bool:
            fired["n"] += 1
            return fired["n"] >= 2  # let one record through

        try:
            with pytest.raises(JobCancelled, match="checkpointed"):
                run_cached_batch(
                    evaluate_bound_scenario, scenarios, store, cancel=cancel
                )
            # The committed prefix survives: a rerun serves it from
            # cache and only computes the remainder.
            sink = MemorySink()
            run = run_cached_batch(
                evaluate_bound_scenario, scenarios, store, sink=sink
            )
            assert run.cached >= 1
            assert run.cached + run.computed == run.total == len(scenarios)
            assert len(sink.records) == len(scenarios)
        finally:
            store.close()
