"""Blocking TCP client for the analysis server.

:class:`ServeClient` is the reference consumer of the
:mod:`repro.serve.protocol` frames — deliberately synchronous (plain
``socket`` + ``makefile``) so tests, benchmarks and shell-style
examples need no event loop.  One client holds one connection; ops are
sequential per connection, matching the server's contract that a
``submit``/``resume`` streams to completion before the next op.

Typical use::

    with ServeClient(host, port) as client:
        lines = client.run(RunRequest.make("sweep", points=20))

``run`` returns the job's JSONL record lines — byte-identical to the
lines a local :class:`repro.engine.JsonlSink` run of the same request
would write.  For resumable consumption, :meth:`ServeClient.submit`
returns a :class:`JobStream`; after a disconnect, a fresh client's
:meth:`ServeClient.resume` with the stream's ``received`` count yields
exactly the remaining records.
"""

from __future__ import annotations

import socket
from typing import IO, Any

from repro.api.request import RunRequest
from repro.api.wire import request_to_wire
from repro.serve.protocol import (
    DEFAULT_LINE_LIMIT,
    PROTOCOL_VERSION,
    encode_frame,
)


class ServeError(RuntimeError):
    """A server-reported error frame, or a transport failure.

    Attributes:
        code: The protocol error code (``busy``, ``unknown-job`` …) or
            ``"disconnected"`` for transport failures.
        job: The job id the error concerns, when the server sent one.
    """

    def __init__(
        self, code: str, message: str, job: str | None = None
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.job = job


class JobStream:
    """Iterator over one job's record lines (strings, no newline).

    Attributes:
        job: The job id (resume handle).
        state: Job state at attach time.
        dedup: ``new``/``inflight``/``replay``/``restart``/``resume``.
        received: Records consumed so far **including** any pre-resume
            offset — exactly the ``last_record`` value a later
            :meth:`ServeClient.resume` needs.
        end: The ``end`` frame (total/cached/computed), once exhausted.
    """

    def __init__(
        self, client: "ServeClient", frame: dict[str, Any], offset: int = 0
    ) -> None:
        self._client = client
        self.job: str = frame["job"]
        self.state: str = frame.get("state", "")
        self.dedup: str = frame.get("dedup", "")
        self.received = offset
        self.end: dict[str, Any] | None = None

    def __iter__(self) -> "JobStream":
        return self

    def __next__(self) -> str:
        if self.end is not None:
            raise StopIteration
        frame = self._client._recv()
        kind = frame.get("frame")
        if kind == "record":
            seq = frame.get("seq")
            if seq != self.received + 1:
                raise ServeError(
                    "disconnected",
                    f"record out of order: expected seq "
                    f"{self.received + 1}, got {seq!r}",
                    job=self.job,
                )
            self.received += 1
            return frame["line"]
        if kind == "end":
            self.end = frame
            raise StopIteration
        if kind == "error":
            raise ServeError(
                frame.get("code", "job-failed"),
                frame.get("message", "server reported an error"),
                job=frame.get("job", self.job),
            )
        raise ServeError(
            "disconnected",
            f"unexpected frame {kind!r} inside a job stream",
            job=self.job,
        )

    def lines(self) -> list[str]:
        """Drain the stream into a list of record lines."""
        return list(self)


class ServeClient:
    """One blocking connection to an analysis server.

    Args:
        host: Server address.
        port: Server port.
        timeout: Socket timeout in seconds for connect and reads —
            generous by default because a submit blocks while the
            server evaluates fresh scenarios.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 120.0
    ) -> None:
        self._sock: socket.socket | None = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._file: IO[bytes] = self._sock.makefile("rb")
        self.hello = self._recv()
        if self.hello.get("frame") != "hello":
            raise ServeError(
                "disconnected",
                f"expected a hello frame, got {self.hello.get('frame')!r}",
            )
        if self.hello.get("protocol") != PROTOCOL_VERSION:
            raise ServeError(
                "disconnected",
                f"server speaks protocol {self.hello.get('protocol')!r}, "
                f"client speaks {PROTOCOL_VERSION}",
            )

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _send(self, frame: dict[str, Any]) -> None:
        if self._sock is None:
            raise ServeError("disconnected", "client is closed")
        self._sock.sendall(encode_frame(frame))

    def _recv(self) -> dict[str, Any]:
        import json

        line = self._file.readline(DEFAULT_LINE_LIMIT + 1024)
        if not line:
            raise ServeError(
                "disconnected", "server closed the connection"
            )
        try:
            frame = json.loads(line)
        except ValueError as exc:
            raise ServeError(
                "disconnected", f"unparseable server frame: {exc}"
            ) from exc
        if not isinstance(frame, dict):
            raise ServeError(
                "disconnected",
                f"server frame is not an object: {type(frame).__name__}",
            )
        return frame

    def _expect_job(self, offset: int = 0) -> JobStream:
        frame = self._recv()
        kind = frame.get("frame")
        if kind == "error":
            raise ServeError(
                frame.get("code", "bad-frame"),
                frame.get("message", "server rejected the request"),
                job=frame.get("job"),
            )
        if kind != "job":
            raise ServeError(
                "disconnected", f"expected a job frame, got {kind!r}"
            )
        return JobStream(self, frame, offset=offset)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def submit(self, request: RunRequest) -> JobStream:
        """Submit a request; returns the (possibly deduped) job stream.

        Raises:
            ServeError: ``busy`` under backpressure, ``bad-request``/
                ``unsupported-workload`` for rejected requests.
        """
        self._send({"op": "submit", "request": request_to_wire(request)})
        return self._expect_job()

    def resume(self, job_id: str, last_record: int = 0) -> JobStream:
        """Re-attach to a job, streaming records after ``last_record``.

        Raises:
            ServeError: ``unknown-job`` or ``bad-offset``.
        """
        self._send(
            {"op": "resume", "job": job_id, "last_record": last_record}
        )
        return self._expect_job(offset=last_record)

    def run(self, request: RunRequest) -> list[str]:
        """Submit and drain: the job's record lines, in order.

        Raises:
            ServeError: any rejection, or a failed/cancelled job.
        """
        return self.submit(request).lines()

    def status(self) -> dict[str, Any]:
        """The server's counters snapshot (``status`` frame).

        Includes the worker-pool gauges ``workers`` (slot count) and
        ``busy_slots`` (slots currently held by running jobs) alongside
        the dedup/backpressure counters.
        """
        self._send({"op": "status"})
        frame = self._recv()
        if frame.get("frame") != "status":
            raise ServeError(
                "disconnected",
                f"expected a status frame, got {frame.get('frame')!r}",
            )
        return frame

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Request cancellation of a job (ack'd immediately).

        Raises:
            ServeError: ``unknown-job``.
        """
        self._send({"op": "cancel", "job": job_id})
        frame = self._recv()
        if frame.get("frame") == "error":
            raise ServeError(
                frame.get("code", "unknown-job"),
                frame.get("message", "cancel failed"),
                job=frame.get("job"),
            )
        return frame

    def ping(self) -> bool:
        """Round-trip liveness check."""
        self._send({"op": "ping"})
        return self._recv().get("frame") == "pong"

    def send_raw(self, payload: bytes) -> dict[str, Any]:
        """Send raw bytes and read one frame (fault-injection tests)."""
        if self._sock is None:
            raise ServeError("disconnected", "client is closed")
        self._sock.sendall(payload)
        return self._recv()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the connection; idempotent."""
        if self._sock is not None:
            try:
                self._file.close()
            finally:
                self._sock.close()
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
