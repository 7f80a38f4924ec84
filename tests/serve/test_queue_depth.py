"""The backpressure check reads the dispatch queue, not the registry.

``AnalysisServer._pending`` holds exactly the queued jobs, so its length
is the queue depth ``max_queued`` bounds: constant time at every
submission, however many finished jobs the registry remembers.  The
test drives the server's loop-side ops directly and pins that length to
a scan of every job's state through each transition.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import RunRequest
from repro.api.wire import request_to_wire
from repro.serve import ServeConfig
from repro.serve.jobs import Job
from repro.serve.protocol import ProtocolError
from repro.serve.server import AnalysisServer


def _held(q: float) -> RunRequest:
    return RunRequest.family("hold", axes={"q": {"grid": [q]}})


class _Writer:
    def __init__(self) -> None:
        self.frames: list[dict] = []

    def write(self, data: bytes) -> None:
        self.frames.extend(json.loads(line) for line in data.splitlines())

    async def drain(self) -> None:
        pass


def test_pending_is_exactly_the_queued_jobs(tmp_path, hold) -> None:
    async def main() -> None:
        loop = asyncio.get_running_loop()
        server = AnalysisServer(
            ServeConfig(store=str(tmp_path / "s.sqlite"), workers=1, max_queued=2)
        )
        # Thousands of finished jobs: the registry never forgets one.
        for n in range(5000):
            old = Job(f"old-{n}", _held(0.0), loop)
            old.state = "done"
            server._registry.jobs[old.id] = old
        await server.start()
        streams: list[asyncio.Task] = []

        def check() -> None:
            queued = server._registry.state_counts()["queued"]
            assert len(server._pending) == queued

        async def submit(q: float) -> Job:
            writer = _Writer()
            frame = {"op": "submit", "request": request_to_wire(_held(q))}
            streams.append(
                asyncio.create_task(
                    server._op_submit(frame, asyncio.StreamReader(), writer)
                )
            )
            await asyncio.sleep(0)  # the ack goes out before any wait
            job = server._registry.get(writer.frames[0]["job"])
            check()
            return job

        try:
            running = await submit(1.0)
            assert running.state == "running"
            assert len(server._pending) == 0
            first, second = await submit(2.0), await submit(3.0)
            assert (first.state, second.state) == ("queued", "queued")
            assert len(server._pending) == 2

            # A full queue refuses a new job after thousands of done ones.
            frame = {"op": "submit", "request": request_to_wire(_held(4.0))}
            with pytest.raises(ProtocolError) as info:
                await server._op_submit(frame, asyncio.StreamReader(), _Writer())
            assert info.value.code == "busy"
            check()

            # Cancelled while queued: its position frees at once.
            await server._op_cancel({"job": second.id}, _Writer())
            assert second.state == "cancelled"
            check()
            assert len(server._pending) == 1

            # Restart: the cancelled job queues again.
            assert await submit(3.0) is second
            assert second.state == "queued"
            assert len(server._pending) == 2

            hold.set()
            await asyncio.wait_for(asyncio.gather(*streams), timeout=30)
            assert [job.state for job in (running, first, second)] == [
                "done",
                "done",
                "done",
            ]
            check()
            assert len(server._pending) == 0
        finally:
            hold.set()
            await server.stop()

    asyncio.run(main())
