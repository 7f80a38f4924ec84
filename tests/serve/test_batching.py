"""Batched hand-offs between a job's slot thread and the event loop.

A served job crosses threads once per batch of records, not once per
record: emission reads the store one query per chunk of keys, a job
keeps at most one wake-up in flight, and each drain pass of a stream
sends its record frames (and, on the last pass, the closing frame) in
one write.  These tests pin that the batching changes no byte on the
wire and loses no record, whatever the interleaving.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import sys
import threading
import time

import pytest

import repro.store.backend as backend
from repro.api import RunRequest
from repro.api.wire import request_to_wire
from repro.api.workloads import get_workload
from repro.serve import ServeClient, ServeConfig
from repro.serve.jobs import Job, job_id_for
from repro.serve.protocol import encode_frame
from repro.serve.server import AnalysisServer, _Slot
from repro.store.keys import package_fingerprint


def _bound(*qs: float) -> RunRequest:
    return RunRequest.family(
        "bound",
        axes={"q": {"grid": list(qs)}},
        defaults={"function": "gaussian1", "knots": 48},
    )


class _Writer:
    """A stream writer that keeps every write and the frames in it."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)  # a real drain may yield to the loop

    def frames(self) -> list[dict]:
        return [json.loads(line) for line in b"".join(self.writes).splitlines()]


def _stream(server: AnalysisServer, job: Job, writer: _Writer):
    return asyncio.wait_for(
        server._stream(job, asyncio.StreamReader(), writer, cursor=0),
        timeout=30,
    )


@pytest.fixture
def server(tmp_path) -> AnalysisServer:
    return AnalysisServer(ServeConfig(store=str(tmp_path / "s.sqlite")))


class TestPulseCoalescing:
    def test_appends_while_a_wake_up_is_pending_ride_on_it(self, monkeypatch):
        # A job changes thrice before the loop runs (dispatched, a
        # line streamed, done with the rest): one wake-up carries all.
        async def main() -> tuple[int, int, bool]:
            loop = asyncio.get_running_loop()
            scheduled = []
            real = loop.call_soon_threadsafe

            def counting(callback, *args):
                scheduled.append(callback)
                return real(callback, *args)

            monkeypatch.setattr(loop, "call_soon_threadsafe", counting)
            job = Job("job", _bound(60.0), loop)
            changed = job.change_event()
            job.pulse()
            job.lines.append('{"n": 0}')
            job.pulse()
            job.complete([f'{{"n": {n}}}' for n in range(1, 8)], 8, 0, 8)
            burst = len(scheduled)
            await asyncio.sleep(0)  # the one wake-up runs
            woke = changed.is_set()
            job.pulse()  # the flag was cleared: a new change wakes again
            return burst, len(scheduled), woke

        burst, total, woke = asyncio.run(main())
        assert (burst, total, woke) == (1, 2, True)

    def test_a_half_warm_job_hands_its_records_over_in_one_wake_up(
        self, server, tmp_path, monkeypatch, solo_lines
    ):
        # The run emits its stored prefix before evaluation and the
        # rest after its commit; the slot still wakes the loop once.
        qs = [50.0 + 20.0 * n for n in range(8)]

        async def main() -> tuple[Job, list]:
            loop = asyncio.get_running_loop()
            slot = _Slot(str(tmp_path / "s.sqlite"), server._fingerprint)
            try:
                warm = Job("warm", _bound(*qs[:4]), loop)
                server._run_job(warm, slot)
                assert (warm.state, warm.cached) == ("done", 0)
                scheduled = []
                real = loop.call_soon_threadsafe

                def counting(callback, *args):
                    scheduled.append(callback)
                    return real(callback, *args)

                monkeypatch.setattr(loop, "call_soon_threadsafe", counting)
                job = Job("job", _bound(*qs), loop)
                server._run_job(job, slot)
                return job, scheduled
            finally:
                slot.close()

        job, scheduled = asyncio.run(main())
        assert (job.state, job.cached, job.computed) == ("done", 4, 4)
        assert job.lines == solo_lines(_bound(*qs))
        assert scheduled == [job._pulse]

    def test_a_burst_reaches_a_waiting_subscriber_in_one_write(self, server):
        lines = [f'{{"n": {n}}}' for n in range(8)]

        async def main() -> _Writer:
            job = Job("job", _bound(60.0), asyncio.get_running_loop())
            job.state = "running"
            writer = _Writer()
            stream = asyncio.create_task(_stream(server, job, writer))
            await asyncio.sleep(0.01)  # the subscriber is waiting
            job.complete(lines, 8, 0, 8)
            await stream
            return writer

        writer = asyncio.run(main())
        assert len(writer.writes) == 1
        frames = writer.frames()
        assert [f["line"] for f in frames[:-1]] == lines
        assert [f["seq"] for f in frames[:-1]] == list(range(1, 9))
        assert frames[-1]["frame"] == "end"

    @pytest.mark.parametrize("seed", range(6))
    def test_every_line_and_the_end_reach_a_subscriber(self, server, seed):
        """Three slot threads (more than this host's cores) append with
        random pauses under a short switch interval and finish right
        after their last line: each stream still carries every line of
        its job, in order, then the end frame."""
        rng = random.Random(seed)
        lines = [f'{{"n": {n}}}' for n in range(300)]
        pauses = [
            [rng.choice((0.0, 0.0, 0.0, 1e-5, 2e-4)) for _ in lines]
            for _ in range(3)
        ]

        async def main() -> list[_Writer]:
            loop = asyncio.get_running_loop()
            jobs = [Job(f"job{n}", _bound(60.0), loop) for n in range(3)]
            writers = [_Writer() for _ in jobs]

            def produce(job: Job, waits: list[float]) -> None:
                for line, pause in zip(lines[:-1], waits):
                    job.lines.append(line)
                    job.pulse()
                    if pause:
                        time.sleep(pause)
                job.complete(lines[-1:], len(lines), 0, len(lines))

            slots = [
                threading.Thread(target=produce, args=(job, waits))
                for job, waits in zip(jobs, pauses)
            ]
            for job in jobs:
                job.state = "running"
            streams = asyncio.gather(
                *(_stream(server, job, w) for job, w in zip(jobs, writers))
            )
            for slot in slots:
                slot.start()
            await streams
            for slot in slots:
                slot.join(timeout=10)
                assert not slot.is_alive()
            return writers

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        for n, writer in enumerate(writers):
            frames = writer.frames()
            assert [f["line"] for f in frames[:-1]] == lines
            assert frames[-1] == {
                "frame": "end",
                "job": f"job{n}",
                "state": "done",
                "total": 300,
                "cached": 0,
                "computed": 300,
            }

    def test_a_failed_job_ends_with_its_error_in_the_last_write(self, server):
        async def main() -> _Writer:
            job = Job("job", _bound(60.0), asyncio.get_running_loop())
            job.state = "running"
            job.lines.append('{"n": 0}')
            job.fail("job-failed", "boom")
            writer = _Writer()
            await _stream(server, job, writer)
            return writer

        writer = asyncio.run(main())
        assert len(writer.writes) == 1
        frames = writer.frames()
        assert [f["frame"] for f in frames] == ["record", "error"]
        assert frames[-1]["message"] == "boom"


def _read_lines(sock: socket.socket, count: int) -> bytes:
    """Receive until ``count`` newline-terminated lines have arrived."""
    data = b""
    while data.count(b"\n") < count:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection mid-stream"
        data += chunk
    return data


class TestWireBytes:
    def test_a_multi_chunk_job_streams_the_exact_frame_bytes(
        self, serve_factory, solo_lines, monkeypatch
    ):
        # Ten records in read chunks of four: the stream spans three
        # emission queries and however many drain passes the timing
        # gives, and must still be these bytes exactly.
        monkeypatch.setattr(backend, "_MEMBERSHIP_CHUNK", 4)
        request = _bound(*(50.0 + 15.0 * n for n in range(10)))
        records = solo_lines(request)
        handle = serve_factory(workers=1)
        params = get_workload(request.workload).resolve_params(
            request.params_dict()
        )
        job_id = job_id_for(
            request.workload, params, package_fingerprint("repro")
        )
        expected = b"".join(
            [
                encode_frame(
                    {"frame": "job", "job": job_id, "state": "running", "dedup": "new"}
                ),
                *(
                    encode_frame(
                        {"frame": "record", "job": job_id, "seq": seq, "line": line}
                    )
                    for seq, line in enumerate(records, start=1)
                ),
                encode_frame(
                    {
                        "frame": "end",
                        "job": job_id,
                        "state": "done",
                        "total": 10,
                        "cached": 0,
                        "computed": 10,
                    }
                ),
            ]
        )
        with socket.create_connection((handle.host, handle.port), 30) as sock:
            hello = _read_lines(sock, 1)
            assert json.loads(hello)["frame"] == "hello"
            sock.sendall(
                encode_frame({"op": "submit", "request": request_to_wire(request)})
            )
            assert _read_lines(sock, 12) == expected


class TestHandOffs:
    def test_an_eight_record_job_reads_its_records_in_one_query(
        self, serve_factory, traced_stores, solo_lines
    ):
        request = _bound(*(50.0 + 20.0 * n for n in range(8)))
        handle = serve_factory(workers=1)
        with ServeClient(handle.host, handle.port) as client:
            assert client.run(request) == solo_lines(request)
            # The same scenarios in another order: a new, all-warm job.
            warm = _bound(*(190.0 - 20.0 * n for n in range(8)))
            assert client.run(warm) == solo_lines(warm, tag="warm")
        handle.stop()

        (store,) = traced_stores
        statements = store.statements
        reads = [s for s in statements if s.startswith("SELECT key, record")]
        singles = [s for s in statements if s.startswith("SELECT record")]
        assert (len(reads), singles) == (2, [])  # one per job
