"""Server-side jobs: state machine, single-flight registry, counters.

A *job* is one submitted request's evaluation: content-addressed id,
the sanitized :class:`~repro.api.RunRequest`, the JSONL lines streamed
so far, and a state machine (``queued → running → done | failed |
cancelled``).  Jobs are **shared**: every client submitting the same
request attaches to the same job (single-flight), and any client can
re-attach later by job id and replay the stream from an offset — which
is what makes streams resumable across disconnects.

Thread topology: jobs are *created and observed* on the server's event
loop, but *evaluated* on a pool slot's thread (one slot per job).  The
slot thread hands a run's lines over and flips states directly (atomic
under the GIL) and wakes loop-side subscribers through
:meth:`Job.pulse` → ``loop.call_soon_threadsafe``, with at most one
wake-up in flight per job: a change made while one is pending rides on
it.  Subscribers follow the capture-event-then-check pattern
(:meth:`Job.change_event`) so no wakeup can be lost between draining
lines and sleeping.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Mapping
from typing import Any

from repro.api.request import RunRequest
from repro.store.keys import scenario_key

#: States a job can rest in (no further lines will be appended).
TERMINAL_STATES = ("done", "failed", "cancelled")


def job_id_for(
    workload: str, params: Mapping[str, Any], fingerprint: str
) -> str:
    """The content-addressed job id of one (workload, params) pair.

    Reuses :func:`repro.store.keys.scenario_key` — sorted-key
    canonical bytes under the server's code fingerprint — so the same
    request from any client on any connection maps to the same job,
    and a code change can never revive a stale job id.
    """
    return scenario_key(
        {"serve-job": {"workload": workload, "params": dict(params)}},
        fingerprint,
    )


class Job:
    """One submitted request's shared evaluation state.

    Attributes:
        id: Content-addressed job id (:func:`job_id_for`).
        request: The sanitized request being evaluated (replaced on
            restart with the resubmitting client's request).
        state: ``queued``/``running``/``done``/``failed``/``cancelled``.
        lines: JSONL record lines streamed so far (grows append-only
            within one attempt; reset on restart).
        error: ``(code, message)`` for failed/cancelled attempts.
        total/cached/computed: Cache statistics of the completed run.
        subscribers: Currently attached client streams.
        attempt: Evaluation attempt counter (restarts increment it).
    """

    def __init__(
        self, job_id: str, request: RunRequest, loop: asyncio.AbstractEventLoop
    ) -> None:
        self.id = job_id
        self.request = request
        self.state = "queued"
        self.lines: list[str] = []
        self.error: tuple[str, str] | None = None
        self.total = 0
        self.cached = 0
        self.computed = 0
        self.subscribers = 0
        self.attempt = 1
        self.cancel_event = threading.Event()
        self._loop = loop
        self._change = asyncio.Event()
        self._pulse_pending = False

    # ------------------------------------------------------------------
    # loop-side observation
    # ------------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        """Whether no further lines or state changes will occur."""
        return self.state in TERMINAL_STATES

    def change_event(self) -> asyncio.Event:
        """The event the *next* :meth:`pulse` will set.

        Capture it **before** inspecting ``lines``/``state``; any
        change after the capture sets exactly this event, so waiting on
        it can never miss an update.
        """
        return self._change

    def _pulse(self) -> None:
        # Subscribers released here read the job only after this
        # returns, so they see every change made while the flag was
        # set; a change made after it is cleared schedules its own.
        self._pulse_pending = False
        previous, self._change = self._change, asyncio.Event()
        previous.set()

    # ------------------------------------------------------------------
    # executor-side mutation
    # ------------------------------------------------------------------

    def pulse(self) -> None:
        """Wake every loop-side subscriber (thread-safe).

        Keeps at most one wake-up in flight: while one is pending, the
        change that called this is already visible to the subscribers
        it will release, so a second hand-off to the loop buys nothing.
        A caller racing :meth:`_pulse` either sees the flag set (and
        that wake-up's subscribers read after the change) or cleared
        (and schedules its own), so the flag needs no lock.
        """
        if self._pulse_pending:
            return
        self._pulse_pending = True
        self._loop.call_soon_threadsafe(self._pulse)

    def complete(
        self, lines: list[str], total: int, cached: int, computed: int
    ) -> None:
        """Append the run's JSONL record lines and mark the job done
        with its cache statistics, in one wake-up."""
        self.lines.extend(lines)
        self.total, self.cached, self.computed = total, cached, computed
        self.state = "done"
        self.pulse()

    def fail(self, code: str, message: str, state: str = "failed") -> None:
        """Mark the job failed (or ``cancelled``) with an error."""
        self.error = (code, message)
        self.state = state
        self.pulse()

    # ------------------------------------------------------------------
    # restart
    # ------------------------------------------------------------------

    def reset_for_restart(self, request: RunRequest) -> None:
        """Re-arm a terminal failed/cancelled job for a fresh attempt.

        The stream starts over (a failed attempt's partial lines must
        not prefix a clean rerun), under the resubmitting client's
        request — identical params by construction of the job id, but
        possibly different options (e.g. without the fault seam).
        """
        assert self.state in ("failed", "cancelled"), self.state
        self.request = request
        self.state = "queued"
        self.lines = []
        self.error = None
        self.total = self.cached = self.computed = 0
        self.attempt += 1
        self.cancel_event = threading.Event()
        self._pulse()


class JobRegistry:
    """All jobs the server knows, with single-flight submission.

    Lives on the event loop (no locking): every mutation happens in
    loop callbacks.  :meth:`submit` implements the dedup decision —
    attach to a live job, replay a finished one, restart a failed one,
    or admit a new one — and keeps the counters the ``status`` frame
    reports.
    """

    def __init__(self) -> None:
        self.jobs: dict[str, Job] = {}
        self.submitted = 0
        self.singleflight_hits = 0
        self.replays = 0
        self.restarts = 0

    def get(self, job_id: str) -> Job | None:
        """The job called ``job_id``, or ``None``."""
        return self.jobs.get(job_id)

    def submit(
        self,
        job_id: str,
        request: RunRequest,
        loop: asyncio.AbstractEventLoop,
    ) -> tuple[Job, str]:
        """Admit one submission under single-flight semantics.

        Returns:
            ``(job, dedup)`` where ``dedup`` is ``"new"`` (job must be
            enqueued by the caller), ``"inflight"`` (attached to a
            queued/running job), ``"replay"`` (job already done; the
            stream is served from memory/store without recomputation)
            or ``"restart"`` (a failed/cancelled job re-armed — the
            caller must enqueue it again).
        """
        self.submitted += 1
        job = self.jobs.get(job_id)
        if job is None:
            job = Job(job_id, request, loop)
            self.jobs[job_id] = job
            return job, "new"
        if job.state in ("queued", "running"):
            self.singleflight_hits += 1
            return job, "inflight"
        if job.state == "done":
            self.replays += 1
            return job, "replay"
        job.reset_for_restart(request)
        self.restarts += 1
        return job, "restart"

    def state_counts(self) -> dict[str, int]:
        """Jobs per state (for the ``status`` frame)."""
        counts = {
            state: 0
            for state in ("queued", "running", *TERMINAL_STATES)
        }
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts
