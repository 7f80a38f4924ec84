"""The benchmark's three workloads and their metrics.

* ``study``: the built-in ``study`` campaign, inline, no store, one
  JSONL sink.  Every job is a fresh campaign seed, so every task set
  is new and context build dominates.
* ``sweep-resume``: a ``bound``-family Q sweep at 1024 knots whose Q
  values are drawn from the seed over the Figure 5 range.  Set-up
  fills a store with the first half of the grid through the
  ``fail_after`` kill seam; every job resumes a copy of it.  The kernel
  dominates, the store reads and writes, the sink is emitted from the
  store.
* ``serve-overlap``: a ``python -m repro serve`` subprocess with a
  fresh store and ``--workers`` set to the host's CPU count, driven by
  one process holding ``min(2, nproc)`` closed-loop connections.  Job
  ``i`` asks for the Q window ``[iH, iH + 2H)``, so it shares half its
  scenarios with job ``i - 1``: half are computed, half read from the
  store, and concurrent jobs contend on the server's claims table.

Inline jobs run in this process.  Before each one every memo cache of
``repro`` is cleared, so a job pays what a fresh ``repro`` process
pays, except the imports; ``setup_s`` reports those separately.

Every timed interval of a ``--trace 0`` run lies between two samples of
:mod:`hostspeed`'s reference work and is reported in reference seconds;
the raw medians are printed as a note.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import hostspeed
import tracing

import repro.api.plan as plan_module
from repro.api import ExecutionOptions, RunRequest, execute_scenarios
from repro.api.workloads import get_workload
from repro.engine.sinks import JsonlSink, MemorySink, ResultSink, record_line
from repro.experiments.functions_fig4 import FIG4_MAX, FIG4_NAMES, FIG4_WCET
from repro.serve.client import ServeClient, ServeError
from repro.store import ResultStore

HERE = Path(__file__).resolve().parent

#: Figure 5's Q range: just above the delay maximum up to half the WCET.
Q_RANGE = (FIG4_MAX + 2.0, FIG4_WCET / 2.0)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``smoke`` shrinks every one for the smoke tests."""

    study_sets_per_point: int
    sweep_points: int
    sweep_knots: int
    serve_half: int
    serve_knots: int
    setup_repeats: int

    @staticmethod
    def of(smoke: bool) -> "Sizes":
        if smoke:
            return Sizes(1, 4, 128, 2, 128, 1)
        return Sizes(1, 16, 1024, 4, 1024, SETUP_REPEATS)


#: The function the ``serve-overlap`` grids sweep.
SERVE_FUNCTIONS = ("gaussian1",)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * share
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def draw_qs(seed: int, count: int, block: int) -> list[float]:
    """``count`` distinct Q values, log-uniform over :data:`Q_RANGE`.

    Stratified: each run of ``block`` consecutive values holds one draw
    from each of ``block`` equal slices of the log range, in shuffled
    order.  Algorithm 1's cost grows like ``1/Q``, so plain draws would
    let a few small Q values make one seed's inputs far costlier than
    another's; stratified blocks keep the cost of every block about the
    same for every seed.
    """
    rng = random.Random(seed)
    low, high = (math.log(bound) for bound in Q_RANGE)
    width = (high - low) / block
    seen: set[float] = set()
    qs: list[float] = []
    while len(qs) < count:
        chunk = []
        for stratum in range(block):
            q = round(math.exp(low + (stratum + rng.random()) * width), 6)
            while q in seen:
                q = round(math.exp(low + (stratum + rng.random()) * width), 6)
            seen.add(q)
            chunk.append(q)
        rng.shuffle(chunk)
        qs.extend(chunk)
    return qs[:count]


def clear_memos() -> None:
    """Empty every per-process memo cache ``repro`` holds."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and not isinstance(value, type):
                clear()


def remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


class References:
    """Output digests recorded per workload and seed (``reference.json``).

    Recorded digests pin every later version of the program to the
    bytes this one wrote.  A seed with no recorded digest is checked
    against a store-less inline run of the same grid instead, and that
    run's digests are offered back through :meth:`put`.
    """

    def __init__(
        self, path: Path, enabled: bool, recording: bool = False
    ) -> None:
        self.path = path
        self.enabled = enabled
        #: ``--record``: every output gets checked, to be recorded.
        self.recording = recording
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.changed = False

    def get(self, workload: str, seed: int) -> Any:
        if not self.enabled:
            return None
        return self.data.get(workload, {}).get(str(seed))

    def put(self, workload: str, seed: int, value: Any) -> None:
        if self.enabled and value != self.get(workload, seed):
            self.data.setdefault(workload, {})[str(seed)] = value
            self.changed = True

    def save(self) -> None:
        self.path.write_text(
            json.dumps(self.data, indent=1, sort_keys=True) + "\n"
        )


@dataclass(frozen=True)
class Run:
    """One invocation of a workload."""

    work: Path
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    references: References


class FirstRecordClock(ResultSink):
    """Forwards records to a sink and notes when the first arrived."""

    def __init__(self, inner: ResultSink) -> None:
        self.inner = inner
        self.first: float | None = None

    def write(self, record: Any) -> None:
        if self.first is None:
            self.first = time.perf_counter()
        self.inner.write(record)


@dataclass
class Job:
    """One timed request and what it produced."""

    latency: float
    ttfr: float
    scenarios: int
    records: int
    digest: str
    cached: int = 0
    computed: int = 0
    bytes: int = 0
    #: Host-speed factor from seconds to reference seconds.
    scale: float = 1.0


@dataclass
class Outcome:
    """A workload run: metrics, counts and the output verdict."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# inline jobs (study, sweep-resume)
# ----------------------------------------------------------------------


def resolve_campaign(spec: Any, overrides: dict[str, Any]) -> dict[str, Any]:
    return get_workload("campaign").resolve_params(
        {"spec": spec, "set": overrides}
    )


def campaign_job(
    spec: Any,
    overrides: dict[str, Any],
    out: Path,
    options: ExecutionOptions,
) -> Job:
    """One inline campaign run, streamed to a JSONL file, timed."""
    clear_memos()
    gc.collect()
    start = time.perf_counter()
    plan = plan_module.plan_scenarios(
        "campaign", resolve_campaign(spec, overrides)
    )
    with JsonlSink(out) as jsonl:
        clock = FirstRecordClock(jsonl)
        run = execute_scenarios(
            plan.worker,
            plan.scenarios,
            options=options,
            manifest=plan.manifest,
            group_by=plan.group_by,
            decode=plan.decode,
            collect=False,
            sink=clock,
            batch_worker=plan.batch_worker,
        )
    end = time.perf_counter()
    return Job(
        latency=end - start,
        ttfr=(clock.first if clock.first is not None else end) - start,
        scenarios=len(plan.scenarios),
        records=jsonl.written,
        digest=sha256_file(out),
        cached=run.cached,
        computed=run.computed,
        bytes=out.stat().st_size,
    )


def timed_loop(seconds: float, job: Any) -> list[Any]:
    """Call ``job(k)`` for k = 0, 1, ... until ``seconds`` have passed."""
    results: list[Any] = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(job(len(results)))
    return results


def scaled_loop(seconds: float, job: Any) -> list[Job]:
    """:func:`timed_loop` with a host-speed sample after every job; each
    job's ``scale`` comes from the samples on either side of it."""
    before = hostspeed.sample()

    def scaled(k: int) -> Job:
        nonlocal before
        done = job(k)
        after = hostspeed.sample()
        done.scale = hostspeed.scale(before, after)
        before = after
        return done

    return timed_loop(seconds, scaled)


def traced_pairs(seconds: float, job: Any, tracer: tracing.Tracer) -> tuple:
    """Each job once plain and once traced; returns both lists."""
    plain: list[Job] = []
    traced: list[Job] = []

    def pair(k: int) -> None:
        plain.append(job(k, "plain"))
        patches = tracing.Patches(tracer).install()
        try:
            traced.append(job(k, "traced"))
        finally:
            patches.remove()

    timed_loop(seconds, pair)
    return plain, traced


def check_jobs(
    outcome: Outcome, jobs: list[Job], expected: dict[int, str]
) -> None:
    """Record counts of every job; digests of the jobs in ``expected``."""
    for k, job in enumerate(jobs):
        if job.records != job.scenarios:
            outcome.problems.append(
                f"job {k}: {job.records} records for {job.scenarios} "
                "scenarios"
            )
        digest = expected.get(k)
        if digest is not None and job.digest != digest:
            outcome.problems.append(
                f"job {k}: output sha256 {job.digest[:12]} differs from "
                f"the reference {digest[:12]}"
            )


def end_to_end(
    outcome: Outcome,
    jobs: list[Job],
    setups: list[float],
    peak_rss_mb: float,
    round_rates: list[float] | None = None,
) -> None:
    """The user-visible numbers, in reference seconds.  Throughput is a
    median, which a burst of host noise moves less than a total: of
    sequential jobs, the median job's scenarios per second; of
    concurrent jobs, the median of ``round_rates``, each round's
    scenarios per scaled second."""
    latencies = [job.latency * job.scale for job in jobs]
    ttfrs = [job.ttfr * job.scale for job in jobs]
    throughput = statistics.median(
        [job.scenarios / t for job, t in zip(jobs, latencies)]
        if round_rates is None
        else round_rates
    )
    outcome.metrics.update(
        {
            "scenarios_per_s": (throughput, "1/s"),
            "job_p50_s": (percentile(latencies, 0.5), "s"),
            "ttfr_p50_s": (percentile(ttfrs, 0.5), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    )
    # Tails are printed, not gated: on a shared 2-CPU host they follow
    # the host's bursts far more than the program (see README).
    outcome.notes.append(
        f"{len(jobs)} jobs, {sum(job.scenarios for job in jobs)} "
        f"scenarios, {len(setups)} set-ups; job p95 "
        f"{percentile(latencies, 0.95):.6g} s, ttfr p95 "
        f"{percentile(ttfrs, 0.95):.6g} s over {len(jobs)} jobs"
    )
    outcome.notes.append(
        "unscaled: job p50 "
        f"{percentile([job.latency for job in jobs], 0.5):.6g} s, ttfr p50 "
        f"{percentile([job.ttfr for job in jobs], 0.5):.6g} s; median "
        f"host-speed scale {statistics.median(job.scale for job in jobs):.4g}"
    )


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(
    tracer: tracing.Tracer,
    wall: float,
    sink_bytes: int,
    overhead: float,
    serve: dict[str, float] | None = None,
    other: float | None = None,
) -> dict[str, tuple[float, str]]:
    """The per-layer table from one traced run's totals.

    ``other`` is the engine remainder; by default it is ``wall`` minus
    every span's self time.
    """
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def spent(name: str) -> float:
        return self_s.get(name, 0.0)

    builds = calls.get("context", 0)
    lookups = counts.get("context.lookups", 0)
    kernel_calls = calls.get("kernel", 0)
    hits = counts.get("store.hits", 0)
    lookups_store = hits + counts.get("store.misses", 0)
    if other is None:
        other = wall - sum(self_s.values())
    serve = serve or {}
    return {
        "plan.s": (spent("plan"), "s"),
        "context.builds": (builds, "count"),
        "context.s": (spent("context"), "s"),
        "context.hit_ratio": (
            1.0 - builds / lookups if lookups else 0.0, "ratio"
        ),
        "kernel.calls": (kernel_calls, "count"),
        "kernel.s": (spent("kernel"), "s"),
        "kernel.us_per_call": (
            1e6 * spent("kernel") / kernel_calls if kernel_calls else 0.0,
            "us",
        ),
        "kernel.windows": (counts.get("kernel.windows", 0), "count"),
        "sched.calls": (calls.get("sched", 0), "count"),
        "sched.self_s": (spent("sched"), "s"),
        "store.key_s": (spent("store.key"), "s"),
        "store.gets": (calls.get("store.get", 0), "count"),
        "store.get_s": (spent("store.get"), "s"),
        "store.puts": (calls.get("store.put", 0), "count"),
        "store.put_s": (spent("store.put"), "s"),
        "store.commits": (calls.get("store.commit", 0), "count"),
        "store.commit_s": (spent("store.commit"), "s"),
        "store.hit_ratio": (
            hits / lookups_store if lookups_store else 0.0, "ratio"
        ),
        "sink.records": (calls.get("sink", 0), "count"),
        "sink.bytes": (sink_bytes, "bytes"),
        "sink.s": (spent("sink"), "s"),
        "engine.other_s": (other, "s"),
        "serve.ack_p50_s": (serve.get("ack", 0.0), "s"),
        "serve.first_record_wait_p50_s": (serve.get("wait", 0.0), "s"),
        "serve.stream_p50_s": (serve.get("stream", 0.0), "s"),
        "serve.claims_wait_s": (spent("serve.claims"), "s"),
        "serve.fanout_s": (spent("serve.fanout"), "s"),
        "serve.scenarios_computed": (serve.get("computed", 0), "count"),
        "serve.scenarios_cached": (serve.get("cached", 0), "count"),
        "serve.cache_ratio": (serve.get("cache_ratio", 0.0), "ratio"),
        "serve.rejected": (serve.get("rejected", 0), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def inline_layers(
    outcome: Outcome, tracer: tracing.Tracer, plain: list[Job], traced: list[Job]
) -> None:
    wall = sum(job.latency for job in traced)
    base = sum(job.latency for job in plain)
    outcome.metrics.update(
        layer_metrics(
            tracer,
            wall,
            sink_bytes=sum(job.bytes for job in traced),
            overhead=wall / base - 1.0,
        )
    )
    other = outcome.metrics["engine.other_s"][0]
    if other < -1e-6 * wall:
        outcome.problems.append(
            f"layer self times exceed the traced wall by {-other:.6f} s"
        )


def study_seed(seed: int, k: int) -> int:
    """The campaign seed of job ``k`` of a run with ``seed``."""
    return seed * 1_000 + k


def cold_start_s(overrides: dict[str, Any]) -> float:
    """A fresh interpreter importing ``repro`` and planning the study."""
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.api.plan import plan_scenarios\n"
        "from repro.api.workloads import get_workload\n"
        "params = get_workload('campaign').resolve_params("
        f"{{'spec': 'study', 'set': {overrides!r}}})\n"
        "plan_scenarios('campaign', params)\n"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=Path.cwd())
    return time.perf_counter() - start


#: Unrecorded ``study`` jobs re-run as their own reference per run.
STUDY_REFERENCE_SAMPLE = 8


def study_reference_jobs(recorded: int, ran: int, run: Run) -> list[int]:
    """The unrecorded jobs ``k`` (``recorded <= k < ran``) to re-run.

    Re-running every one would double the run; a sample spread evenly
    over them, first and last included, is checked instead.  With
    ``--record`` every one is re-run, so what is recorded was checked.
    """
    unrecorded = list(range(recorded, ran))
    if run.references.recording or len(unrecorded) <= STUDY_REFERENCE_SAMPLE:
        return unrecorded
    step = (len(unrecorded) - 1) / (STUDY_REFERENCE_SAMPLE - 1)
    return sorted(
        {unrecorded[round(n * step)] for n in range(STUDY_REFERENCE_SAMPLE)}
    )


def run_study(run: Run) -> Outcome:
    outcome = Outcome()

    def overrides(k: int) -> dict[str, Any]:
        return {
            "seed": study_seed(run.seed, k),
            "sets_per_point": run.sizes.study_sets_per_point,
        }

    setups = [
        hostspeed.timed(lambda: cold_start_s(overrides(0)))[1]
        for _ in range(run.sizes.setup_repeats)
    ]
    inline = ExecutionOptions()
    # Warm-up: lazy imports happen here, not inside the first job.
    campaign_job(
        "study", {"seed": run.seed, "sets_per_point": 1},
        run.work / "warm.jsonl", inline,
    )

    def job(k: int, tag: str = "plain") -> Job:
        return campaign_job(
            "study", overrides(k), run.work / f"study-{tag}-{k}.jsonl", inline
        )

    recorded = run.references.get("study", run.seed) or []
    expected = dict(enumerate(recorded))
    if run.trace:
        tracer = tracing.Tracer()
        jobs, traced = traced_pairs(run.seconds, job, tracer)
        inline_layers(outcome, tracer, jobs, traced)
        # The plain copy of each job is a store-less inline run.
        check_jobs(
            outcome,
            traced,
            {k: expected.get(k, plain.digest) for k, plain in enumerate(jobs)},
        )
    else:
        jobs = scaled_loop(run.seconds, job)
        end_to_end(outcome, jobs, setups, own_peak_rss_mb())
        for k in study_reference_jobs(len(recorded), len(jobs), run):
            expected[k] = job(k, "reference").digest
    check_jobs(outcome, jobs, expected)
    if (
        not outcome.problems
        and len(jobs) > len(recorded)
        and all(k in expected for k in range(len(jobs)))
    ):
        run.references.put(
            "study", run.seed, [expected[k] for k in range(len(jobs))]
        )
    outcome.attempted = len(jobs)
    return outcome


def sweep_spec(seed: int, sizes: Sizes) -> dict[str, Any]:
    return {
        "name": "sweep-resume",
        "family": "bound",
        "axes": {
            # Two stratified halves: set-up caches the first, each job
            # computes the second.
            "q": {
                "grid": draw_qs(
                    seed, sizes.sweep_points, sizes.sweep_points // 2
                )
            },
            "function": {"grid": list(FIG4_NAMES)},
        },
        "defaults": {"knots": sizes.sweep_knots},
    }


def fill_half(spec: dict[str, Any], store: Path, half: int) -> float:
    """Set-up: run the sweep into ``store`` until the kill seam fires."""
    remove_store(store)
    clear_memos()
    gc.collect()
    start = time.perf_counter()
    plan = plan_module.plan_scenarios("campaign", resolve_campaign(spec, {}))
    try:
        execute_scenarios(
            plan.worker,
            plan.scenarios,
            options=ExecutionOptions(store=str(store), fail_after=half),
            manifest=plan.manifest,
            group_by=plan.group_by,
            decode=plan.decode,
            collect=False,
            batch_worker=plan.batch_worker,
        )
    except KeyboardInterrupt:
        pass
    else:
        raise RuntimeError("the fail_after seam did not interrupt the fill")
    elapsed = time.perf_counter() - start
    with ResultStore(store) as filled:
        stored = len(filled)
    if stored != half:
        raise RuntimeError(f"set-up stored {stored} records, expected {half}")
    return elapsed


def run_sweep_resume(run: Run) -> Outcome:
    outcome = Outcome()
    spec = sweep_spec(run.seed, run.sizes)
    total = run.sizes.sweep_points * len(FIG4_NAMES)
    half = total // 2
    template = run.work / "half.sqlite"
    setups = []
    for attempt in range(run.sizes.setup_repeats):
        store = run.work / f"fill-{attempt}.sqlite"
        before = hostspeed.sample()
        elapsed = fill_half(spec, store, half)
        setups.append(elapsed * hostspeed.scale(before, hostspeed.sample()))
        if attempt == 0:
            shutil.copyfile(store, template)
        remove_store(store)

    def job(k: int, tag: str = "plain") -> Job:
        store = run.work / f"resume-{tag}-{k}.sqlite"
        shutil.copyfile(template, store)
        try:
            return campaign_job(
                spec,
                {},
                run.work / f"sweep-{tag}-{k}.jsonl",
                ExecutionOptions(store=str(store), resume=True),
            )
        finally:
            remove_store(store)

    if run.trace:
        tracer = tracing.Tracer()
        plain, traced = traced_pairs(run.seconds, job, tracer)
        jobs = plain + traced
        inline_layers(outcome, tracer, plain, traced)
    else:
        jobs = scaled_loop(run.seconds, job)
        end_to_end(outcome, jobs, setups, own_peak_rss_mb())
    expected = run.references.get("sweep-resume", run.seed)
    if expected is None:
        expected = campaign_job(
            spec, {}, run.work / "sweep-reference.jsonl", ExecutionOptions()
        ).digest
    check_jobs(outcome, jobs, dict.fromkeys(range(len(jobs)), expected))
    for k, done in enumerate(jobs):
        if (done.cached, done.computed) != (half, total - half):
            outcome.problems.append(
                f"job {k}: {done.cached} cached + {done.computed} computed, "
                f"expected {half} + {total - half}"
            )
    if not outcome.problems:
        run.references.put("sweep-resume", run.seed, expected)
    outcome.attempted = len(jobs)
    return outcome


# ----------------------------------------------------------------------
# serve-overlap
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on a fresh store."""

    def __init__(
        self, work: Path, name: str, workers: int, trace_dir: Path | None
    ) -> None:
        self.store = work / f"{name}.sqlite"
        ready = work / f"{name}.ready"
        remove_store(self.store)
        ready.unlink(missing_ok=True)
        serve_args = [
            "serve",
            "--port", "0",
            "--workers", str(workers),
            "--store", str(self.store),
            "--ready-file", str(ready),
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable,
                str(HERE / "traced_server.py"),
                "--trace-dir", str(trace_dir),
                *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path.cwd() / "src")
        env["REPRO_RESULTS_DIR"] = str(work / "results")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL
        )
        try:
            while not ready.exists() or not ready.read_text().strip():
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.process.returncode} "
                        "before it was ready"
                    )
                if time.perf_counter() - start > 60:
                    raise RuntimeError("server not ready within 60 s")
                time.sleep(0.002)
            host, port = ready.read_text().split()
            self.host, self.port = host, int(port)
            with ServeClient(self.host, self.port) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("the server's /proc status has no VmHWM line")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        remove_store(self.store)
        shutil.rmtree(f"{self.store}.shards", ignore_errors=True)


def serve_request(qs: list[float], i: int, sizes: Sizes) -> RunRequest:
    """Job ``i``: Q window ``[iH, iH + 2H)``, half shared with job i-1."""
    h = sizes.serve_half
    return RunRequest.family(
        "bound",
        axes={
            "q": {"grid": qs[i * h : i * h + 2 * h]},
            "function": {"grid": list(SERVE_FUNCTIONS)},
        },
        defaults={"knots": sizes.serve_knots},
        name="serve-overlap",
    )


@dataclass
class Served:
    """One served job: its clock readings and the lines it streamed."""

    index: int
    submit: float
    ack: float
    first: float
    end: float
    lines: list[str]
    #: Host-speed factor of the job's round.
    scale: float = 1.0


def drive(
    server: Server,
    qs: list[float],
    sizes: Sizes,
    seconds: float,
    connections: int,
    scaled: bool = False,
) -> tuple[list[Served], list[str], list[float]]:
    """Closed-loop load in rounds: each connection submits one job, and
    the next round starts when every job of this one has ended.  If
    ``scaled``, a host-speed sample is taken between rounds, while the
    server is idle, and each round is scaled by the samples around it.
    Returns served jobs, failures and each round's records per (scaled)
    second."""
    served: list[Served] = []
    failures: list[str] = []
    rates: list[float] = []
    max_jobs = len(qs) // sizes.serve_half - 2

    def one(client: ServeClient, i: int, out: list[Any]) -> None:
        submit = time.perf_counter()
        try:
            stream = client.submit(serve_request(qs, i, sizes))
            ack = time.perf_counter()
            first = None
            lines = []
            for line in stream:
                if first is None:
                    first = time.perf_counter()
                lines.append(line)
            end = time.perf_counter()
            out.append(
                Served(
                    i, submit, ack, first if first is not None else end,
                    end, lines,
                )
            )
        except BaseException as exc:  # sorted out by the driving thread
            out.append(exc)

    clients: list[ServeClient] = []
    try:
        for _ in range(connections):
            clients.append(ServeClient(server.host, server.port))
        before = hostspeed.sample() if scaled else 0.0
        deadline = time.perf_counter() + seconds
        next_job = 0
        while (
            time.perf_counter() < deadline
            and next_job + connections <= max_jobs
        ):
            outs: list[list[Any]] = [[] for _ in clients]
            threads = [
                threading.Thread(
                    target=one,
                    args=(client, next_job + n, outs[n]),
                    name=f"load-{n}",
                )
                for n, client in enumerate(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
                if thread.is_alive():
                    raise RuntimeError(f"{thread.name} did not finish")
            elapsed = time.perf_counter() - start
            scale = 1.0
            if scaled:
                after = hostspeed.sample()
                scale = hostspeed.scale(before, after)
                before = after
            records = 0
            for n, (out,) in enumerate(outs):
                i = next_job + n
                if isinstance(out, Served):
                    out.scale = scale
                    served.append(out)
                    records += len(out.lines)
                elif isinstance(out, ServeError):
                    failures.append(f"job {i}: {out}")
                    if out.code == "disconnected":
                        clients[n].close()
                        clients[n] = ServeClient(server.host, server.port)
                else:
                    raise out
            rates.append(records / (elapsed * scale))
            next_job += connections
    finally:
        for client in clients:
            client.close()
    return served, failures, rates


#: Jobs per recorded ``serve-overlap`` digest.
SERVE_DIGEST_BLOCK = 100


def stream_sha256(jobs: list[Served]) -> str:
    digest = hashlib.sha256()
    for job in jobs:
        for line in job.lines:
            digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def check_served(
    outcome: Outcome, served: list[Served], qs: list[float], run: Run
) -> None:
    """Each block of :data:`SERVE_DIGEST_BLOCK` jobs against its recorded
    stream digest; jobs past the recorded blocks against a store-less
    inline run of their scenarios."""
    if not served:
        outcome.problems.append("no job completed")
        return
    per_job = 2 * run.sizes.serve_half * len(SERVE_FUNCTIONS)
    for job in served:
        if len(job.lines) != per_job:
            outcome.problems.append(
                f"job {job.index}: {len(job.lines)} records for {per_job} "
                "scenarios"
            )
    prefix = [job for n, job in enumerate(served) if job.index == n]
    blocks = [
        prefix[start : start + SERVE_DIGEST_BLOCK]
        for start in range(
            0, len(prefix) - SERVE_DIGEST_BLOCK + 1, SERVE_DIGEST_BLOCK
        )
    ]
    recorded = run.references.get("serve-overlap", run.seed) or []
    for n, (block, digest) in enumerate(zip(blocks, recorded)):
        if stream_sha256(block) != digest:
            outcome.problems.append(
                f"jobs {n * SERVE_DIGEST_BLOCK}-"
                f"{(n + 1) * SERVE_DIGEST_BLOCK - 1}: stream sha256 differs "
                "from the recorded reference"
            )
    checked = min(len(blocks), len(recorded)) * SERVE_DIGEST_BLOCK
    rest = [job for job in served if job.index >= checked]
    orders = {}
    for job in rest:
        request = serve_request(qs, job.index, run.sizes)
        plan = plan_module.plan_scenarios(
            "campaign",
            get_workload("campaign").resolve_params(request.params_dict()),
        )
        orders[job.index] = [(s.q, s.function) for s in plan.scenarios]
    union = sorted({pair for order in orders.values() for pair in order})
    by_function: dict[str, list[float]] = {}
    for q, function in union:
        by_function.setdefault(function, []).append(q)
    reference: dict[tuple[float, str], str] = {}
    clear_memos()
    for function, function_qs in by_function.items():
        plan = plan_module.plan_scenarios(
            "campaign",
            resolve_campaign(
                {
                    "family": "bound",
                    "axes": {
                        "q": {"grid": function_qs},
                        "function": {"grid": [function]},
                    },
                    "defaults": {"knots": run.sizes.serve_knots},
                },
                {},
            ),
        )
        sink = MemorySink()
        execute_scenarios(
            plan.worker,
            plan.scenarios,
            group_by=plan.group_by,
            collect=False,
            sink=sink,
        )
        for scenario, record in zip(plan.scenarios, sink.records):
            reference[(scenario.q, scenario.function)] = record_line(record)
    for job in rest:
        want = [reference[pair] for pair in orders[job.index]]
        if job.lines != want:
            outcome.problems.append(
                f"job {job.index}: stream differs from the store-less "
                "inline reference"
            )
    if not outcome.problems and len(blocks) > len(recorded):
        run.references.put(
            "serve-overlap", run.seed, [stream_sha256(b) for b in blocks]
        )


def run_serve_overlap(run: Run) -> Outcome:
    outcome = Outcome()
    cpus = nproc()
    connections = min(2, cpus)
    outcome.notes.append(
        f"server --workers {cpus}, {connections} closed-loop connections"
    )
    sizes = run.sizes
    # Each job computes one block of ``serve_half`` fresh Q values.
    qs = draw_qs(
        run.seed,
        sizes.serve_half * (int(200 * run.seconds) + 4),
        sizes.serve_half,
    )
    if run.trace:
        half = run.seconds / 2.0
        plain_server = Server(run.work, "plain", cpus, None)
        try:
            plain, plain_failures, _ = drive(
                plain_server, qs, sizes, half, connections
            )
        finally:
            plain_server.stop()
        trace_dir = run.work / "trace"
        server = Server(run.work, "traced", cpus, trace_dir)
        try:
            served, failures, _ = drive(server, qs, sizes, half, connections)
            with ServeClient(server.host, server.port) as client:
                status = client.status()
        finally:
            server.stop()
        tracer = tracing.load_dir(trace_dir)
        n = min(len(plain), len(served))
        overhead = (
            sum(job.end - job.submit for job in served[:n])
            / sum(job.end - job.submit for job in plain[:n])
            - 1.0
        )
        cached = int(status["scenarios_cached"])
        computed = int(status["scenarios_computed"])
        outcome.metrics.update(
            layer_metrics(
                tracer,
                sum(tracer.self_s.values()),
                sink_bytes=sum(
                    len(line) + 1 for job in served for line in job.lines
                ),
                overhead=overhead,
                # The job roots' own time: what no layer span covers.
                other=tracer.self_s.get("serve.job", 0.0)
                + tracer.self_s.get("serve.shard", 0.0),
                serve={
                    "ack": percentile(
                        [job.ack - job.submit for job in served], 0.5
                    ),
                    "wait": percentile(
                        [job.first - job.ack for job in served], 0.5
                    ),
                    "stream": percentile(
                        [job.end - job.first for job in served], 0.5
                    ),
                    "computed": computed,
                    "cached": cached,
                    "cache_ratio": cached / max(1, cached + computed),
                    "rejected": int(status["rejected"]),
                },
            )
        )
        check_served(outcome, plain, qs, run)
        check_served(outcome, served, qs, run)
        outcome.attempted = (
            len(plain) + len(served) + len(failures) + len(plain_failures)
        )
        outcome.failed = len(failures) + len(plain_failures)
        return outcome

    setups: list[float] = []

    def start_server(name: str) -> Server:
        before = hostspeed.sample()
        server = Server(run.work, name, cpus, None)
        setups.append(
            server.setup_s * hostspeed.scale(before, hostspeed.sample())
        )
        return server

    for attempt in range(sizes.setup_repeats - 1):
        start_server(f"setup-{attempt}").stop()
    server = start_server("serve")
    try:
        served, failures, rates = drive(
            server, qs, sizes, run.seconds, connections, scaled=True
        )
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    jobs = [
        Job(
            latency=job.end - job.submit,
            ttfr=job.first - job.submit,
            scenarios=len(job.lines),
            records=len(job.lines),
            digest="",
            scale=job.scale,
        )
        for job in served
    ]
    end_to_end(outcome, jobs, setups, peak, round_rates=rates)
    check_served(outcome, served, qs, run)
    outcome.attempted = len(served) + len(failures)
    outcome.failed = len(failures)
    return outcome


WORKLOADS = {
    "study": run_study,
    "sweep-resume": run_sweep_resume,
    "serve-overlap": run_serve_overlap,
}
