"""Engine core: determinism across worker counts, chunking edge cases,
ordered streaming, the bounded submission window."""

import inspect
import threading

import pytest

from repro.engine import (
    JobCancelled,
    MemorySink,
    resolve_workers,
    run_batch,
    run_cached_batch,
)
from repro.engine import engine as engine_module
from repro.store import ResultStore


def _square(x: int) -> int:
    """Module-level worker (picklable into the process pool)."""
    return x * x


def _tag(x: int) -> dict:
    return {"x": x, "sq": x * x}


class TestInlinePath:
    def test_results_in_order(self):
        assert run_batch(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_sweep(self):
        assert run_batch(_square, []) == []

    def test_sink_receives_every_record_in_order(self):
        sink = MemorySink()
        run_batch(_tag, [0, 1, 2], sink=sink)
        assert [r["x"] for r in sink.records] == [0, 1, 2]


class TestPooledPaths:
    @pytest.mark.parametrize("executor", ["process"])
    def test_identical_to_inline(self, executor):
        xs = list(range(37))
        inline = run_batch(_square, xs)
        pooled = run_batch(_square, xs, max_workers=3, chunk_size=4)
        assert pooled == inline

    def test_chunk_larger_than_input(self):
        xs = [1, 2, 3]
        assert run_batch(_square, xs, max_workers=2, chunk_size=100) == [
            1, 4, 9,
        ]

    def test_empty_sweep_parallel(self):
        assert run_batch(_square, [], max_workers=4) == []

    def test_chunk_size_one(self):
        xs = list(range(11))
        assert run_batch(_square, xs, max_workers=4, chunk_size=1) == [
            x * x for x in xs
        ]

    def test_sink_streams_in_scenario_order(self):
        sink = MemorySink()
        run_batch(
            _tag,
            list(range(23)),
            max_workers=4,
            chunk_size=3,
            sink=sink,
        )
        assert [r["x"] for r in sink.records] == list(range(23))

    def test_worker_exception_propagates(self, thread_pool):
        def boom(x):
            raise RuntimeError("worker failed")

        with pytest.raises(RuntimeError):
            run_batch(boom, [1], max_workers=2)


class TestStreamOnlyMode:
    def test_inline_collect_false_streams_without_accumulating(self):
        sink = MemorySink()
        returned = run_batch(_tag, [0, 1, 2], sink=sink, collect=False)
        assert returned is None
        assert [r["x"] for r in sink.records] == [0, 1, 2]

    def test_pooled_collect_false_streams_in_order(self):
        sink = MemorySink()
        returned = run_batch(
            _tag,
            list(range(17)),
            max_workers=3,
            chunk_size=2,
            sink=sink,
            collect=False,
        )
        assert returned is None
        assert [r["x"] for r in sink.records] == list(range(17))

    def test_collect_false_without_sink_rejected(self):
        with pytest.raises(ValueError):
            run_batch(_square, [1], collect=False)


class TestConfig:
    def test_invalid_chunk_size_rejected(self):
        for max_workers in (None, 2):
            with pytest.raises(ValueError, match="chunk_size must be > 0"):
                run_batch(
                    _square, [1], max_workers=max_workers, chunk_size=0
                )

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers must be >= 0"):
            run_batch(_square, [1], max_workers=-1)

    def test_zero_and_one_workers_are_inline(self, thread_pool):
        caller = threading.get_ident()

        def where(_):
            return threading.get_ident()

        for max_workers in (None, 0, 1):
            assert run_batch(where, [0, 1], max_workers=max_workers) == [
                caller, caller,
            ]
        pooled = run_batch(where, [0, 1], max_workers=2)
        assert caller not in pooled

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1

    def test_resolve_workers_respects_the_affinity_mask(self, monkeypatch):
        # Pinned to one CPU of many (taskset -c 0): one worker.
        monkeypatch.setattr("os.cpu_count", lambda: 16)
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3

    def test_resolve_workers_without_affinity_uses_cpu_count(
        self, monkeypatch
    ):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert resolve_workers(None) == 6
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert resolve_workers(None) == 1

    def test_engine_default_config(self):
        defaults = {
            name: param.default
            for name, param in inspect.signature(run_batch).parameters.items()
            if param.kind is param.KEYWORD_ONLY
        }
        assert defaults == {
            "max_workers": None,
            "chunk_size": None,
            "sink": None,
            "collect": True,
            "group_by": None,
        }


class _BlockedHead:
    """A thread-pool worker whose scenario 0 blocks until the engine
    has nothing more it may submit.

    The engine's ``wait`` is wrapped: a wait on one future alone means
    every other admitted chunk has finished and the gate admitted no
    more, so the worker's start count is final.  The wrapper records
    that count, then releases scenario 0.
    """

    def __init__(self, monkeypatch):
        self.started: list[int] = []
        self.started_while_blocked: int | None = None
        self._release = threading.Event()
        real_wait = engine_module.wait

        def settled_wait(fs, **kwargs):
            if len(fs) == 1 and not self._release.is_set():
                self.started_while_blocked = len(self.started)
                self._release.set()
            return real_wait(fs, **kwargs)

        monkeypatch.setattr(engine_module, "wait", settled_wait)

    def __call__(self, x: int) -> dict:
        self.started.append(x)
        if x == 0:
            self._release.wait(timeout=30)
        return {"x": x}


_GROUPINGS = {
    "ungrouped": None,
    "one-key": lambda x: 0,
    "two-keys": lambda x: x % 2,
}


class TestSubmissionGate:
    """A slow chunk holds back submission: past ``max_workers × 4``
    chunks submitted but not yet flushed, only the chunk starting at
    the next index to flush is admitted."""

    WORKERS = 2
    BOUND = WORKERS * engine_module._MAX_INFLIGHT_FACTOR + 1

    @pytest.mark.parametrize("grouping", sorted(_GROUPINGS))
    def test_blocked_first_chunk_caps_submission(
        self, monkeypatch, thread_pool, grouping
    ):
        worker = _BlockedHead(monkeypatch)
        xs = list(range(400))
        results = run_batch(
            worker,
            xs,
            max_workers=self.WORKERS,
            chunk_size=1,
            group_by=_GROUPINGS[grouping],
        )
        assert results == [{"x": x} for x in xs]
        assert worker.started_while_blocked is not None
        assert worker.started_while_blocked <= self.BOUND

    @pytest.mark.parametrize("grouping", sorted(_GROUPINGS))
    def test_cancelled_cached_run_evaluates_at_most_the_window(
        self, monkeypatch, thread_pool, tmp_path, grouping
    ):
        worker = _BlockedHead(monkeypatch)
        fresh: list[int] = []
        with ResultStore(tmp_path / "s.sqlite", fingerprint="fp") as store:
            with pytest.raises(JobCancelled):
                run_cached_batch(
                    worker,
                    list(range(400)),
                    store,
                    max_workers=self.WORKERS,
                    chunk_size=1,
                    group_by=_GROUPINGS[grouping],
                    on_result=fresh.append,
                    cancel=lambda: len(fresh) >= 2,
                )
        assert fresh == [1, 2]
        # Every submitted chunk runs to completion; only two were kept.
        assert len(worker.started) <= self.BOUND

    def test_interleaved_groups_complete_within_a_two_chunk_window(
        self, monkeypatch
    ):
        # Keys x % 30 over 60 scenarios with chunk 2: every chunk pairs
        # index k with k + 30, so each finished chunk stays held until
        # the second half flushes.  Only the admission of the chunk
        # holding the next index lets the run go on.
        monkeypatch.setattr(engine_module, "_MAX_INFLIGHT_FACTOR", 1)
        xs = list(range(60))
        for key in (lambda x: x % 30, lambda x: x % 5):
            outcome: dict = {}
            sink = MemorySink()

            def run(key=key, sink=sink, outcome=outcome):
                outcome["results"] = run_batch(
                    _tag,
                    xs,
                    max_workers=2,
                    chunk_size=2,
                    sink=sink,
                    group_by=key,
                )

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive(), "pooled run stalled"
            assert outcome["results"] == run_batch(_tag, xs)
            assert [r["x"] for r in sink.records] == xs
