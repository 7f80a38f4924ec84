"""Engine core: determinism across worker counts, chunking edge cases,
ordered streaming."""

import pytest

from repro.engine import (
    BatchEngine,
    EngineConfig,
    MemorySink,
    resolve_workers,
    run_batch,
)


def _square(x: int) -> int:
    """Module-level worker (picklable for the process executor)."""
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
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_identical_to_inline(self, executor):
        xs = list(range(37))
        inline = run_batch(_square, xs)
        pooled = run_batch(
            _square, xs, max_workers=3, chunk_size=4, executor=executor
        )
        assert pooled == inline

    def test_chunk_larger_than_input(self):
        xs = [1, 2, 3]
        assert run_batch(
            _square, xs, max_workers=2, chunk_size=100, executor="thread"
        ) == [1, 4, 9]

    def test_empty_sweep_parallel(self):
        assert run_batch(_square, [], max_workers=4, executor="thread") == []

    def test_chunk_size_one(self):
        xs = list(range(11))
        assert run_batch(
            _square, xs, max_workers=4, chunk_size=1, executor="thread"
        ) == [x * x for x in xs]

    def test_sink_streams_in_scenario_order(self):
        sink = MemorySink()
        run_batch(
            _tag,
            list(range(23)),
            max_workers=4,
            chunk_size=3,
            executor="thread",
            sink=sink,
        )
        assert [r["x"] for r in sink.records] == list(range(23))

    def test_worker_exception_propagates(self):
        def boom(x):
            raise RuntimeError("worker failed")

        with pytest.raises(RuntimeError):
            run_batch(boom, [1], max_workers=2, executor="thread")


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
            executor="thread",
            sink=sink,
            collect=False,
        )
        assert returned is None
        assert [r["x"] for r in sink.records] == list(range(17))

    def test_collect_false_without_sink_rejected(self):
        with pytest.raises(ValueError):
            run_batch(_square, [1], collect=False)


class TestConfig:
    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(executor="gpu")

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(chunk_size=0)

    def test_zero_and_one_workers_are_inline(self):
        assert not EngineConfig(max_workers=0).parallel
        assert not EngineConfig(max_workers=1).parallel
        assert not EngineConfig().parallel
        assert EngineConfig(max_workers=2).parallel

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
        assert BatchEngine().config == EngineConfig()
