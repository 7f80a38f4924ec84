"""The asyncio analysis server: accept, dedup, evaluate, stream.

One :class:`AnalysisServer` owns four cooperating pieces:

* an **asyncio TCP server** speaking the :mod:`repro.serve.protocol`
  frames, one connection per client, ops handled sequentially per
  connection (a ``submit``/``resume`` streams to completion before the
  next op is read);
* a **job registry** (:class:`repro.serve.jobs.JobRegistry`) giving
  every request a content-addressed job id with single-flight
  semantics;
* a **bounded job queue** — at most ``max_queued`` jobs wait for a
  pool slot; submissions beyond that are rejected with a ``busy``
  error frame (the backpressure contract);
* a **job-executor pool** of ``workers`` slots, one thread each.
  Independent jobs run concurrently, one slot each.  A slot evaluates
  its job through :func:`repro.engine.run_cached_batch` against the
  shared store, on the engine's own process pool when ``jobs`` is set
  — the only intra-job parallelism — through one store connection it
  opens on its first job and keeps until the server stops.  Emission
  always happens from the store in scenario order
  (:func:`repro.engine.emit_from_store`), so a served stream is
  byte-identical to a solo :meth:`repro.api.Workbench.run` by
  construction.

Dedup happens at three levels: identical requests collapse to one job
(single-flight), concurrently *running* jobs that overlap claim their
scenario keys so no two slots ever compute the same scenario, and
distinct requests sharing scenarios hit the store's content-addressed
cache — a scenario any client ever computed is never computed again.

Entry points: :func:`run_server` (blocking; the ``repro serve`` CLI
workload), and :func:`start_server` (background thread returning a
:class:`ServerHandle`; tests, benchmarks and examples).
"""

from __future__ import annotations

import asyncio
import queue
import sqlite3
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api.options import ExecutionOptions
from repro.api.plan import SERVABLE_WORKLOADS, plan_scenarios
from repro.api.request import RunRequest
from repro.api.wire import request_from_wire
from repro.api.workloads import get_workload
from repro.engine import (
    JobCancelled,
    WorkerError,
    record_line,
    resolve_workers,
    run_cached_batch,
)
from repro.engine.sinks import ResultSink
from repro.serve.jobs import Job, JobRegistry, job_id_for
from repro.serve.protocol import (
    CLIENT_OPS,
    DEFAULT_LINE_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
)
from repro.store import ResultStore
from repro.store.keys import package_fingerprint, scenario_key

#: Extra reader allowance so a frame exactly at the limit still parses
#: (the protocol limit is on the payload; the newline needs a byte too).
_READER_SLACK = 1024

#: Upper bound of the default pool width: serving is I/O-light and the
#: engine already parallelizes inside a job (``jobs``), so past a
#: handful of slots more concurrency only buys scheduler churn.
_DEFAULT_WORKER_CAP = 8


def default_workers() -> int:
    """The pool width used when :attr:`ServeConfig.workers` is unset."""
    return min(resolve_workers(), _DEFAULT_WORKER_CAP)


@dataclass(frozen=True)
class ServeConfig:
    """Everything a server needs to run.

    Attributes:
        host: Bind address (default loopback).
        port: Bind port; ``0`` picks a free one (tests).
        store: Path of the shared result store (each pool slot opens
            its own connection; must be a path, never an open store).
        jobs: Engine pool width for fresh scenarios (``None`` inline).
        chunk: Engine chunk size (``None`` auto).
        workers: Concurrent job slots (``None`` =
            :func:`default_workers`, i.e. the usable CPUs, capped).
            Every job runs on exactly one slot; parallelism inside a
            job is ``jobs``.  ``1`` serializes jobs strictly.
        max_queued: Queued-job bound; submissions beyond it get
            ``busy`` error frames instead of unbounded queueing.
        line_limit: Per-frame byte budget for client lines.
        allow_fail_after: Honor the ``fail_after`` fault-injection
            option of submitted requests (tests only; off by default
            so no client can crash a production server's jobs).
        ready_file: Optional path that receives ``"<host> <port>"``
            once the server is listening (lets a shell script with
            ``port=0`` discover the bound port).
    """

    host: str = "127.0.0.1"
    port: int = 0
    store: str = ""
    jobs: int | None = None
    chunk: int | None = None
    workers: int | None = None
    max_queued: int = 16
    line_limit: int = DEFAULT_LINE_LIMIT
    allow_fail_after: bool = False
    ready_file: str = ""


class _JobSink(ResultSink):
    """Collects a job's stream: one verbatim JSONL line per record.

    Uses :func:`repro.engine.record_line` — the exact serialization
    :class:`repro.engine.JsonlSink` writes — so a served stream is
    byte-identical to a local sink file by construction.  The lines
    stay here until the run returns and reach the job in one hand-off
    (:meth:`Job.complete`): each hand-off to the loop waits on the GIL,
    so handing a half-warm job's stored prefix over early would cost
    it a second one.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def write(self, record: Any) -> None:
        self.lines.append(record_line(record))


class _Slot:
    """One pool slot's store connection: opened lazily, then kept.

    sqlite connections are bound to the thread that opened them, so
    every slot thread owns one.  Its first job opens it — start-up
    does no store work — every later job on the slot reuses it (no
    per-job connect, schema check or WAL checkpoint on close), and the
    slot thread closes it when the server stops.
    """

    def __init__(self, path: str, fingerprint: str) -> None:
        self._path = path
        self._fingerprint = fingerprint
        self._store: ResultStore | None = None

    def store(self) -> ResultStore:
        if self._store is None:
            self._store = ResultStore(
                self._path, fingerprint=self._fingerprint
            )
        return self._store

    def close(self) -> None:
        """Close and forget the connection; the next job reopens it."""
        store, self._store = self._store, None
        if store is not None:
            try:
                store.close()
            except sqlite3.Error:
                pass  # ResultStore.close releases the handle regardless


def _evaluate_shard(spec: dict[str, Any]) -> dict[str, Any]:
    """Placeholder read only by ``perfbench/tracing.py``; never called."""
    raise RuntimeError("serve jobs are no longer split into shard sub-runs")


class AnalysisServer:
    """The running server: loop-side state and the executor bridge.

    Construct with a :class:`ServeConfig`, then ``await start()`` from
    a running loop; ``await stop()`` tears everything down and the
    statistics remain readable via :meth:`stats`.
    """

    def __init__(self, config: ServeConfig) -> None:
        if not config.store:
            raise ValueError("ServeConfig.store must be a store path")
        if config.workers is not None and config.workers < 1:
            raise ValueError(
                f"ServeConfig.workers must be >= 1, got {config.workers}"
            )
        self._config = config
        self._registry = JobRegistry()
        self._fingerprint = package_fingerprint("repro")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._workers = config.workers or default_workers()
        self._stopping = False
        # The pool: one thread per slot, fed jobs (``None`` = exit)
        # by the dispatcher.
        self._slot_threads: list[threading.Thread] = []
        self._slot_queue: queue.SimpleQueue[Job | None] = (
            queue.SimpleQueue()
        )
        # Slots close their connections one at a time at stop: SQLite
        # folds the WAL back only when the closing connection finds no
        # other one open, and two slots closing at once can each still
        # see the other and both leave the ``-wal`` file behind.
        self._close_lock = threading.Lock()
        # The queued jobs, in dispatch order: a job leaves the deque
        # as it starts or is cancelled, so ``len`` is the queue depth
        # the backpressure check reads.
        self._pending: deque[Job] = deque()
        # Pool accounting: a plain lock, usable from the loop *and* the
        # slot threads (a finished job adds its scenario counts from
        # its own thread).
        self._slot_lock = threading.Lock()
        self._slots_busy = 0
        # Scenario claims: running jobs that overlap serialize on the
        # scenario level so no two slots compute the same key.
        self._claims: dict[str, str] = {}
        self._claims_cond = threading.Condition()
        self.host = config.host
        self.port = config.port
        # loop-side counters beyond what the registry keeps
        self._connections = 0
        self._live_connections = 0
        self._records_streamed = 0
        self._rejected = 0
        self._bad_frames = 0
        self._scenarios_cached = 0
        self._scenarios_computed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind, start the job pool, and (optionally) report ready."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client,
            self._config.host,
            self._config.port,
            limit=self._config.line_limit + _READER_SLACK,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._slot_threads = [
            threading.Thread(
                target=self._slot_main,
                name=f"repro-serve-job-{n}",
                daemon=True,
            )
            for n in range(self._workers)
        ]
        for thread in self._slot_threads:
            thread.start()
        if self._config.ready_file:
            ready = Path(self._config.ready_file)
            banner = f"{self.host} {self.port}\n"

            def publish() -> None:
                ready.parent.mkdir(parents=True, exist_ok=True)
                ready.write_text(banner)

            await asyncio.to_thread(publish)

    async def stop(self) -> None:
        """Stop accepting, cancel live jobs, drain the pool."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pending.clear()
        # A running job stops at its next record checkpoint (the
        # engine polls the job's cancel event); the work already
        # computed is committed, so a restart resumes it.
        for job in self._registry.jobs.values():
            if not job.terminal:
                job.cancel_event.set()
        threads, self._slot_threads = self._slot_threads, []
        for _ in threads:
            self._slot_queue.put(None)

        def drain() -> None:
            for thread in threads:
                thread.join()

        # Off-loop join: job-completion callbacks and claim wakeups
        # need the loop responsive while the pool drains.  Each slot
        # thread closes its store connection on the way out.
        await asyncio.to_thread(drain)

    def stats(self) -> dict[str, Any]:
        """Counters snapshot (also the ``status`` frame payload)."""
        with self._slot_lock:
            busy = self._slots_busy
        return {
            "protocol": PROTOCOL_VERSION,
            "connections": self._connections,
            "live_connections": self._live_connections,
            "workers": self._workers,
            "busy_slots": busy,
            "submitted": self._registry.submitted,
            "singleflight_hits": self._registry.singleflight_hits,
            "replays": self._registry.replays,
            "restarts": self._registry.restarts,
            "rejected": self._rejected,
            "bad_frames": self._bad_frames,
            "records_streamed": self._records_streamed,
            "scenarios_cached": self._scenarios_cached,
            "scenarios_computed": self._scenarios_computed,
            "jobs": self._registry.state_counts(),
        }

    # ------------------------------------------------------------------
    # job dispatch (event loop)
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Start queued jobs while pool slots are free (loop side)."""
        if self._stopping or not self._slot_threads:
            return
        while self._pending:
            with self._slot_lock:
                if self._slots_busy >= self._workers:
                    return
                self._slots_busy += 1
            job = self._pending.popleft()
            job.state = "running"
            job.pulse()
            self._slot_queue.put(job)

    def _job_finished(self) -> None:
        with self._slot_lock:
            self._slots_busy -= 1
        self._dispatch()

    def _discard_pending(self, job: Job) -> None:
        """Drop a job cancelled while queued from the dispatch queue.

        Its queue position frees at once: a stale entry would count
        against ``max_queued`` and refuse another client's submission.
        """
        try:
            self._pending.remove(job)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # claim accounting (any thread)
    # ------------------------------------------------------------------

    def _acquire_claims(self, job: Job, keys: list[str]) -> bool:
        """Claim every scenario key for ``job``; ``False`` on cancel.

        All-or-nothing: a job holds either its whole key set or
        nothing, and holders never wait — so two overlapping jobs
        serialize (scenario-level single-flight across pool slots)
        without any possibility of deadlock.
        """
        wanted = sorted(set(keys))
        with self._claims_cond:
            while not self._stopping:
                if job.cancel_event.is_set():
                    return False
                blocked = [
                    key
                    for key in wanted
                    if self._claims.get(key, job.id) != job.id
                ]
                if not blocked:
                    for key in wanted:
                        self._claims[key] = job.id
                    return True
                # Timed wait doubles as the cancel poll.
                self._claims_cond.wait(timeout=0.05)
        return False

    def _release_claims(self, job: Job, keys: list[str]) -> None:
        wanted = sorted(set(keys))
        with self._claims_cond:
            for key in wanted:
                if self._claims.get(key) == job.id:
                    del self._claims[key]
            self._claims_cond.notify_all()

    # ------------------------------------------------------------------
    # job execution (slot threads)
    # ------------------------------------------------------------------

    def _slot_main(self) -> None:
        """One pool slot: run dispatched jobs until told to exit."""
        assert self._loop is not None
        slot = _Slot(self._config.store, self._fingerprint)
        try:
            while (job := self._slot_queue.get()) is not None:
                self._run_job(job, slot)
                self._loop.call_soon_threadsafe(self._job_finished)
        finally:
            with self._close_lock:
                slot.close()

    def _run_job(self, job: Job, slot: _Slot) -> None:
        """Evaluate one job on its pool slot (slot thread)."""
        keys: list[str] = []
        claimed = False
        try:
            workload = get_workload(job.request.workload)
            params = workload.resolve_params(job.request.params_dict())
            plan = plan_scenarios(job.request.workload, params)
            keys = [
                scenario_key(s, self._fingerprint) for s in plan.scenarios
            ]
            claimed = self._acquire_claims(job, keys)
            if not claimed:
                raise JobCancelled(
                    "job cancelled while waiting on overlapping scenarios"
                )
            on_result: Callable[[int], None] | None = None
            fail_after = job.request.options.fail_after
            if fail_after is not None:

                def on_result(count: int, _limit: int = fail_after) -> None:
                    if count >= _limit:
                        raise KeyboardInterrupt(
                            f"fail_after={_limit} fault injected"
                        )

            sink = _JobSink()
            run = run_cached_batch(
                plan.worker,
                plan.scenarios,
                slot.store(),
                sink=sink,
                collect=False,
                max_workers=self._config.jobs,
                chunk_size=self._config.chunk,
                group_by=plan.group_by,
                on_result=on_result,
                cancel=job.cancel_event.is_set,
                keys=keys,
            )
            # Count scenarios *before* the job turns terminal: the end
            # frame releases subscribers, and a client that saw it must
            # find these totals already reflected in ``status``.
            with self._slot_lock:
                self._scenarios_cached += run.cached
                self._scenarios_computed += run.computed
            job.complete(sink.lines, run.total, run.cached, run.computed)
        except JobCancelled as exc:
            job.fail("job-cancelled", str(exc), state="cancelled")
        except KeyboardInterrupt as exc:
            job.fail(
                "job-failed",
                f"job killed mid-run ({exc}); completed scenarios are "
                "checkpointed — resubmit to resume from them",
            )
        except WorkerError as exc:
            job.fail("job-failed", str(exc))
        except ValueError as exc:
            # Plan-time rejection: bad campaign spec, unknown family …
            job.fail("bad-request", str(exc))
        except Exception as exc:
            job.fail("job-failed", f"{type(exc).__name__}: {exc}")
            # Whatever broke may have left the connection mid-
            # transaction or unusable: the next job reopens it.
            slot.close()
        finally:
            if claimed:
                self._release_claims(job, keys)

    def _run_sharded(self, *args: Any) -> Any:
        """Placeholder read only by ``perfbench/tracing.py``; never called."""
        raise RuntimeError("serve jobs are no longer split into shard sub-runs")

    # ------------------------------------------------------------------
    # connection handling (event loop)
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        self._live_connections += 1
        try:
            await self._send(
                writer,
                {
                    "frame": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "workloads": list(SERVABLE_WORKLOADS),
                },
            )
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    if not exc.partial:
                        break  # clean EOF: client closed
                    line = exc.partial  # final unterminated line
                except asyncio.LimitOverrunError:
                    # The line outgrew the reader buffer.  Report it,
                    # then discard through the next newline so the
                    # connection's framing recovers — one bad client
                    # frame must never cost anyone the connection.
                    self._bad_frames += 1
                    oversized = ProtocolError(
                        "oversized",
                        "frame exceeds the "
                        f"{self._config.line_limit}-byte limit",
                    )
                    await self._send(writer, oversized.frame())
                    if not await self._discard_line_tail(reader):
                        break  # EOF while discarding
                    continue
                if not line.strip():
                    continue
                try:
                    await self._handle_frame(line, reader, writer)
                except ProtocolError as exc:
                    self._bad_frames += 1
                    await self._send(writer, exc.frame())
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away; jobs keep their own lifecycle
        finally:
            self._live_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _discard_line_tail(reader: asyncio.StreamReader) -> bool:
        """Discard input through the next newline; ``False`` on EOF.

        Recovers framing after an over-limit line: everything up to
        and including the line's terminating newline is dropped, and
        whatever follows it is left intact for the normal read loop.
        """
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.IncompleteReadError:
                return False
            except asyncio.LimitOverrunError as exc:
                if not await reader.read(exc.consumed or 1):
                    return False

    async def _handle_frame(
        self,
        line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        from repro.serve.protocol import decode_frame

        frame = decode_frame(line, limit=self._config.line_limit)
        op = frame.get("op")
        if op not in CLIENT_OPS:
            raise ProtocolError(
                "bad-frame",
                f"unknown op {op!r}; expected one of "
                f"{', '.join(CLIENT_OPS)}",
            )
        if op == "ping":
            await self._send(writer, {"frame": "pong"})
        elif op == "status":
            await self._send(writer, {"frame": "status", **self.stats()})
        elif op == "cancel":
            await self._op_cancel(frame, writer)
        elif op == "submit":
            await self._op_submit(frame, reader, writer)
        else:  # resume
            await self._op_resume(frame, reader, writer)

    # -- ops -----------------------------------------------------------

    def _sanitize(self, request: RunRequest) -> RunRequest:
        """The request the server actually evaluates.

        Execution policy (store, pool width, sinks) is the *server's*;
        client-supplied options are discarded except the ``fail_after``
        fault seam, and that only when the config opts in.
        """
        fail_after = None
        if self._config.allow_fail_after:
            fail_after = request.options.fail_after
        return RunRequest(
            workload=request.workload,
            params=request.params,
            options=ExecutionOptions(fail_after=fail_after),
        )

    async def _op_submit(
        self,
        frame: dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self._loop is not None
        try:
            request = request_from_wire(frame.get("request"))
            if request.workload not in SERVABLE_WORKLOADS:
                raise ProtocolError(
                    "unsupported-workload",
                    f"workload {request.workload!r} is not servable; "
                    f"servable: {', '.join(SERVABLE_WORKLOADS)}",
                )
            request = self._sanitize(request)
            workload = get_workload(request.workload)
            params = workload.resolve_params(request.params_dict())
        except ProtocolError:
            raise
        except ValueError as exc:
            raise ProtocolError("bad-request", str(exc)) from exc
        job_id = job_id_for(request.workload, params, self._fingerprint)
        existing = self._registry.get(job_id)
        needs_enqueue = existing is None or existing.state in (
            "failed",
            "cancelled",
        )
        if needs_enqueue and len(self._pending) >= self._config.max_queued:
            self._rejected += 1
            raise ProtocolError(
                "busy",
                f"job queue is full ({self._config.max_queued} queued); "
                "retry later",
            )
        job, dedup = self._registry.submit(job_id, request, self._loop)
        if dedup in ("new", "restart"):
            self._pending.append(job)
            self._dispatch()
        await self._send(
            writer,
            {
                "frame": "job",
                "job": job.id,
                "state": job.state,
                "dedup": dedup,
            },
        )
        await self._stream(job, reader, writer, cursor=0)

    async def _op_resume(
        self,
        frame: dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        job = self._registry.get(str(frame.get("job")))
        if job is None:
            raise ProtocolError(
                "unknown-job", f"no job {frame.get('job')!r} on this server"
            )
        last = frame.get("last_record", 0)
        if not isinstance(last, int) or isinstance(last, bool) or last < 0:
            raise ProtocolError(
                "bad-offset",
                f"last_record must be a non-negative integer, got {last!r}",
            )
        if last > len(job.lines):
            raise ProtocolError(
                "bad-offset",
                f"last_record={last} but job {job.id[:12]}… has only "
                f"{len(job.lines)} record(s)",
            )
        await self._send(
            writer,
            {
                "frame": "job",
                "job": job.id,
                "state": job.state,
                "dedup": "resume",
            },
        )
        await self._stream(job, reader, writer, cursor=last)

    async def _op_cancel(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self._registry.get(str(frame.get("job")))
        if job is None:
            raise ProtocolError(
                "unknown-job", f"no job {frame.get('job')!r} on this server"
            )
        job.cancel_event.set()
        if job.state == "queued":
            job.fail(
                "job-cancelled", "cancelled while queued", state="cancelled"
            )
            self._discard_pending(job)
        await self._send(writer, {"frame": "cancelled", "job": job.id})

    # -- streaming -----------------------------------------------------

    async def _stream(
        self,
        job: Job,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        cursor: int,
    ) -> None:
        """Send record frames from ``cursor`` until the job is terminal.

        Each drain pass sends every record frame pending at its start
        in one write and one drain; the pass that saw the job terminal
        sends its records and the closing frame together.

        The capture-event-then-check pattern pairs with
        :meth:`Job.change_event`: the event captured *before* draining
        is the one any later change sets, so no update is missed
        between the drain and the wait.

        While waiting, a one-byte read watches the connection: sends
        only fail once the OS notices, so without it a vanished client
        would pin its subscription (and keep a queued job alive) until
        the job produced output.  The protocol forbids client frames
        during an active stream, so any inbound byte here — data or
        EOF — means the subscription is over.
        """
        job.subscribers += 1
        eof_watch = asyncio.create_task(reader.read(1))
        try:
            while True:
                changed = job.change_event()
                # Read the state *before* draining: the job appends its
                # last line before it turns terminal, so a drain after
                # seeing it terminal cannot miss a line — whereas checking
                # after the drain could see a line land and the job
                # finish in between, and end the stream one short.
                finished = job.terminal
                count = len(job.lines)
                frames = [
                    encode_frame(
                        {
                            "frame": "record",
                            "job": job.id,
                            "seq": seq,
                            "line": line,
                        }
                    )
                    for seq, line in enumerate(
                        job.lines[cursor:count], start=cursor + 1
                    )
                ]
                self._records_streamed += count - cursor
                cursor = count
                if finished:
                    break
                if frames:
                    writer.write(b"".join(frames))
                    await writer.drain()
                    # Lines that landed during the drain are read at
                    # once, without waiting for their wake-up.
                    continue
                waiter = asyncio.create_task(changed.wait())
                done, _ = await asyncio.wait(
                    {waiter, eof_watch},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if eof_watch in done:
                    waiter.cancel()
                    raise ConnectionResetError(
                        "client disconnected (or spoke) mid-stream"
                    )
            # Stop watching *before* the final frame: the client may
            # legally send its next op the moment it sees the stream
            # end, and the watcher must not swallow that op's bytes.
            if not eof_watch.done():
                eof_watch.cancel()
                try:
                    await eof_watch
                except asyncio.CancelledError:
                    pass
            else:
                # Completed watcher: EOF, or a byte we already consumed
                # (a protocol violation) — either way the line framing
                # is unrecoverable, so the connection is done.
                raise ConnectionResetError(
                    "client disconnected (or spoke) mid-stream"
                )
            if job.state == "done":
                last = {
                    "frame": "end",
                    "job": job.id,
                    "state": "done",
                    "total": job.total,
                    "cached": job.cached,
                    "computed": job.computed,
                }
            else:
                code, message = job.error or ("job-failed", "job failed")
                last = {
                    "frame": "error",
                    "code": code,
                    "message": message,
                    "job": job.id,
                }
            frames.append(encode_frame(last))
            writer.write(b"".join(frames))
            await writer.drain()
        finally:
            if not eof_watch.done():
                eof_watch.cancel()
            job.subscribers -= 1
            if job.state == "queued" and job.subscribers == 0:
                # Nobody is waiting for it and it never started: drop
                # it *and its queue position* right away (a running job
                # keeps going — its results land in the shared store,
                # and the client may resume later).
                job.cancel_event.set()
                job.fail(
                    "job-cancelled",
                    "all subscribers disconnected before the job started",
                    state="cancelled",
                )
                self._discard_pending(job)

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, frame: dict[str, Any]
    ) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()


def run_server(
    config: ServeConfig,
    stop_event: threading.Event | None = None,
    on_started: Callable[[str, int], None] | None = None,
) -> dict[str, Any]:
    """Run a server until interrupted; returns the final statistics.

    Args:
        config: Server configuration.
        stop_event: Optional external stop signal (polled); without
            one the server runs until :class:`KeyboardInterrupt`.
        on_started: Optional ``(host, port)`` callback once listening.

    Returns:
        The final :meth:`AnalysisServer.stats` snapshot.
    """
    server = AnalysisServer(config)

    async def main() -> dict[str, Any]:
        await server.start()
        if on_started is not None:
            on_started(server.host, server.port)
        try:
            if stop_event is None:
                await asyncio.Event().wait()  # until KeyboardInterrupt
            else:
                while not stop_event.is_set():
                    await asyncio.sleep(0.05)
        finally:
            await server.stop()
        return server.stats()

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return server.stats()


class ServerHandle:
    """A server running on a background thread (tests and examples).

    Obtained from :func:`start_server`; ``host``/``port`` give the
    bound address and :meth:`stop` shuts down and returns the final
    statistics.  Usable as a context manager.
    """

    def __init__(self, config: ServeConfig) -> None:
        self._config = config
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._stats: dict[str, Any] | None = None
        self._error: BaseException | None = None
        self.host = config.host
        self.port = config.port
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _on_started(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._ready.set()

    def _run(self) -> None:
        try:
            self._stats = run_server(
                self._config,
                stop_event=self._stop,
                on_started=self._on_started,
            )
        except BaseException as exc:  # noqa: BLE001 - reported in start/stop
            self._error = exc
        finally:
            self._ready.set()

    def _start(self, timeout: float) -> "ServerHandle":
        self._thread.start()
        if not self._ready.wait(timeout):
            self._stop.set()
            raise TimeoutError(
                f"server did not start within {timeout:.0f}s"
            )
        if self._error is not None:
            raise self._error
        return self

    def stop(self, timeout: float = 30.0) -> dict[str, Any]:
        """Shut the server down; returns the final statistics."""
        self._stop.set()
        self._thread.join(timeout)
        if self._error is not None:
            raise self._error
        return dict(self._stats or {})

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._thread.is_alive():
            self.stop()


def start_server(config: ServeConfig, timeout: float = 30.0) -> ServerHandle:
    """Start a server on a background thread and wait until it listens.

    Args:
        config: Server configuration (``port=0`` picks a free port;
            read the bound one off the returned handle).
        timeout: Seconds to wait for the listener before giving up.

    Returns:
        A :class:`ServerHandle` whose ``host``/``port`` are live.
    """
    return ServerHandle(config)._start(timeout)
