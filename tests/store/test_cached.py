"""run_cached_batch: skip, checkpoint, resume, emit-from-store."""

import pytest

from repro.engine import (
    JsonlSink,
    MemorySink,
    ResultSink,
    emit_from_store,
    run_batch,
    run_cached_batch,
)
from repro.engine import JobCancelled, WorkerError
from repro.store import ResultStore, scenario_key

CALLS = []


def _tag(x: int) -> dict:
    """Module-level worker recording its invocations."""
    CALLS.append(x)
    return {"x": x, "sq": x * x}


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


def _store(tmp_path, **kwargs):
    return ResultStore(tmp_path / "s.sqlite", fingerprint="fp", **kwargs)


class TestCaching:
    def test_first_run_computes_everything(self, tmp_path):
        with _store(tmp_path) as store:
            run = run_cached_batch(_tag, [1, 2, 3], store)
            assert (run.total, run.cached, run.computed) == (3, 0, 3)
            assert run.results == [
                {"x": 1, "sq": 1},
                {"x": 2, "sq": 4},
                {"x": 3, "sq": 9},
            ]
            assert CALLS == [1, 2, 3]

    def test_second_run_computes_nothing(self, tmp_path):
        with _store(tmp_path) as store:
            first = run_cached_batch(_tag, [1, 2, 3], store)
            CALLS.clear()
            second = run_cached_batch(_tag, [1, 2, 3], store)
            assert CALLS == []
            assert (second.cached, second.computed) == (3, 0)
            assert second.results == first.results

    def test_partial_overlap_computes_only_new(self, tmp_path):
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [1, 2], store)
            CALLS.clear()
            run = run_cached_batch(_tag, [2, 3, 1, 4], store)
            assert sorted(CALLS) == [3, 4]
            assert (run.cached, run.computed) == (2, 2)
            assert [r["x"] for r in run.results] == [2, 3, 1, 4]

    def test_duplicate_scenarios_computed_once(self, tmp_path):
        with _store(tmp_path) as store:
            run = run_cached_batch(_tag, [5, 5, 5], store)
            assert CALLS == [5]
            assert run.computed == 1
            assert [r["x"] for r in run.results] == [5, 5, 5]

    def test_results_match_plain_run_batch(self, tmp_path):
        xs = list(range(10))
        with _store(tmp_path) as store:
            cached = run_cached_batch(_tag, xs, store).results
        assert cached == run_batch(_tag, xs)

    def test_decode_applies(self, tmp_path):
        with _store(tmp_path) as store:
            run = run_cached_batch(
                _tag, [2], store, decode=lambda r: r["sq"]
            )
            assert run.results == [4]

    def test_sink_receives_records_in_scenario_order(self, tmp_path):
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [3, 1, 2], store)
            sink = MemorySink()
            run = run_cached_batch(
                _tag, [3, 1, 2], store, sink=sink, collect=False
            )
            assert run.results is None
            assert [r["x"] for r in sink.records] == [3, 1, 2]


class TestResume:
    def test_abort_hook_leaves_resumable_store(self, tmp_path):
        def abort(count):
            if count >= 2:
                raise KeyboardInterrupt

        store = _store(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_cached_batch(_tag, [1, 2, 3, 4], store, on_result=abort)
        store.close()  # what a CLI context manager does on the way out

        CALLS.clear()
        with _store(tmp_path) as store:
            run = run_cached_batch(_tag, [1, 2, 3, 4], store)
            assert (run.cached, run.computed) == (2, 2)
            assert sorted(CALLS) == [3, 4]
            assert [r["x"] for r in run.results] == [1, 2, 3, 4]

    def test_resumed_results_equal_uninterrupted(self, tmp_path):
        xs = list(range(8))
        uninterrupted = run_batch(_tag, xs)

        def abort(count):
            if count >= 3:
                raise KeyboardInterrupt

        store = ResultStore(tmp_path / "i.sqlite", fingerprint="fp")
        with pytest.raises(KeyboardInterrupt):
            run_cached_batch(_tag, xs, store, on_result=abort)
        store.close()
        with ResultStore(tmp_path / "i.sqlite", fingerprint="fp") as store:
            resumed = run_cached_batch(_tag, xs, store).results
        assert resumed == uninterrupted


class TestWorkerErrorIndex:
    def test_failure_index_is_relative_to_the_full_scenario_list(
        self, tmp_path
    ):
        from repro.engine import WorkerError

        with _store(tmp_path) as store:
            run_cached_batch(_tag, [0, 1, 2], store)  # cache a prefix
            with pytest.raises(WorkerError) as excinfo:
                run_cached_batch(
                    _boom_on_four, [0, 1, 2, 3, 4, 5], store
                )
            # Scenario 4 fails; 0-2 were cached so run_batch only saw
            # [3, 4, 5] — the reported index must still be 4.
            assert excinfo.value.index == 4


def _boom_on_four(x: int) -> dict:
    if x == 4:
        raise RuntimeError("four fails")
    return _tag(x)


class TestEmitFromStore:
    def test_emits_in_scenario_order(self, tmp_path):
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [1, 2, 3], store)
            sink = MemorySink()
            results = emit_from_store(store, [2, 1, 3], sink=sink)
            assert [r["x"] for r in results] == [2, 1, 3]
            assert [r["x"] for r in sink.records] == [2, 1, 3]

    def test_missing_records_fail_with_count(self, tmp_path):
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [1], store)
            with pytest.raises(ValueError, match="missing 2 of 3"):
                emit_from_store(store, [1, 2, 3])


def _count_commits(store: ResultStore) -> list[int]:
    """Count ``store.commit`` calls on this one store object."""
    calls = [0]
    commit = store.commit

    def counted() -> None:
        calls[0] += 1
        commit()

    store.commit = counted  # type: ignore[method-assign]
    return calls


def _abort_at_two(count: int) -> None:
    if count >= 2:
        raise KeyboardInterrupt


class TestOneCommitPerRun:
    """A run commits once, however it ends, and that commit makes the
    computed prefix durable."""

    @pytest.mark.parametrize(
        ("outcome", "worker", "kwargs", "raises", "stored"),
        [
            ("success", _tag, {}, None, 4),
            ("kill", _tag, {"on_result": _abort_at_two}, KeyboardInterrupt, 2),
            (
                "cancel",
                _tag,
                {"cancel": lambda: len(CALLS) >= 3},
                JobCancelled,
                3,
            ),
            ("worker-error", _boom_on_four, {}, WorkerError, 3),
        ],
    )
    def test_one_commit_makes_the_prefix_durable(
        self, tmp_path, outcome, worker, kwargs, raises, stored
    ):
        store = _store(tmp_path)
        try:
            commits = _count_commits(store)
            if raises is None:
                run_cached_batch(worker, [1, 2, 3, 4], store, **kwargs)
            else:
                with pytest.raises(raises):
                    run_cached_batch(worker, [1, 2, 3, 4], store, **kwargs)
            assert commits == [1]
            # Durable before any close: a second connection sees it all.
            with _store(tmp_path) as other:
                assert len(other) == stored
        finally:
            store.close()

    def test_an_all_cached_run_commits_once_too(self, tmp_path):
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [1, 2], store)
            commits = _count_commits(store)
            run = run_cached_batch(_tag, [2, 1], store)
            assert (run.cached, commits) == (2, [1])


class TestKeysHashedOncePerRun:
    def test_each_scenario_key_is_hashed_once(self, tmp_path, monkeypatch):
        import repro.engine.cached as cached

        hashed = []

        def counting_key(scenario, fingerprint=""):
            hashed.append(scenario)
            return scenario_key(scenario, fingerprint)

        monkeypatch.setattr(cached, "scenario_key", counting_key)
        with _store(tmp_path) as store:
            run = run_cached_batch(_tag, [1, 2, 3], store)
        assert sorted(hashed) == [1, 2, 3]
        assert [r["x"] for r in run.results] == [1, 2, 3]

    def test_precomputed_keys_are_used_as_given(self, tmp_path, monkeypatch):
        import repro.engine.cached as cached

        with _store(tmp_path) as store:
            keys = [scenario_key(x, store.fingerprint) for x in (3, 1)]

            def no_hashing(*args, **kwargs):
                raise AssertionError("keys were passed in; none to hash")

            monkeypatch.setattr(cached, "scenario_key", no_hashing)
            run = run_cached_batch(_tag, [3, 1], store, keys=keys)
            monkeypatch.undo()
            assert [r["x"] for r in run.results] == [3, 1]
            # Rows landed under exactly those keys: a plain run reads them.
            CALLS.clear()
            again = run_cached_batch(_tag, [1, 3], store)
            assert (again.cached, CALLS) == (2, [])

    def test_a_key_count_mismatch_is_refused(self, tmp_path):
        with _store(tmp_path) as store:
            with pytest.raises(ValueError, match="2 keys for 3 scenarios"):
                run_cached_batch(_tag, [1, 2, 3], store, keys=["a", "b"])


class TestOneStoreReadPerScenario:
    """Each record is read once, in batches: the cache decision is one
    membership query per chunk of keys, and emission one read query per
    chunk, so no scenario costs a ``get`` or a ``key in store`` of its
    own."""

    @pytest.fixture
    def reads(self, monkeypatch) -> dict[str, int]:
        reads = {"get": 0, "contains": 0}
        get, contains = ResultStore.get, ResultStore.__contains__

        def counted_get(self, key):
            reads["get"] += 1
            return get(self, key)

        def counted_contains(self, key):
            reads["contains"] += 1
            return contains(self, key)

        monkeypatch.setattr(ResultStore, "get", counted_get)
        monkeypatch.setattr(ResultStore, "__contains__", counted_contains)
        return reads

    @staticmethod
    def _trace(store: ResultStore) -> list[str]:
        statements: list[str] = []
        store._connection().set_trace_callback(statements.append)
        return statements

    @staticmethod
    def _queries(statements: list[str]) -> dict[str, int]:
        return {
            "membership": sum(
                s.startswith("SELECT key FROM results") for s in statements
            ),
            "read": sum(
                s.startswith("SELECT key, record FROM results")
                for s in statements
            ),
        }

    def test_a_half_warm_run_reads_each_record_once(self, tmp_path, reads):
        xs = list(range(12))
        with _store(tmp_path) as store:
            run_cached_batch(_tag, xs[::2], store)
            CALLS.clear()
            statements = self._trace(store)
            sink = MemorySink()
            run = run_cached_batch(_tag, xs, store, sink=sink)
        assert (run.cached, run.computed) == (6, 6)
        assert CALLS == xs[1::2]
        assert reads == {"get": 0, "contains": 0}
        # One read per emission point: the stored prefix ``[0]`` before
        # evaluation, the other eleven records after the commit.
        assert self._queries(statements) == {"membership": 1, "read": 2}
        read_at = [
            n
            for n, s in enumerate(statements)
            if s.startswith("SELECT key, record")
        ]
        first_put = next(
            n for n, s in enumerate(statements) if s.startswith("INSERT")
        )
        assert read_at[0] < first_put
        assert statements[read_at[1] - 1] == "COMMIT"
        assert [r["x"] for r in sink.records] == xs

    def test_membership_spans_query_chunks(self, tmp_path, monkeypatch, reads):
        import repro.store.backend as backend

        monkeypatch.setattr(backend, "_MEMBERSHIP_CHUNK", 4)
        xs = list(range(11))
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [1, 4, 5, 10], store)
            keys = [scenario_key(x, store.fingerprint) for x in xs]
            absent = list(store.missing_indices(keys))
            assert absent == [0, 2, 3, 6, 7, 8, 9]
            CALLS.clear()
            statements = self._trace(store)
            run = run_cached_batch(_tag, [*xs, 3, 1], store)
        assert CALLS == absent
        assert [r["x"] for r in run.results] == [*xs, 3, 1]
        # 13 keys in chunks of 4: four queries of each kind.
        assert self._queries(statements) == {"membership": 4, "read": 4}
        assert reads == {"get": 0, "contains": 0}

    def test_a_gap_in_a_later_chunk_fails_with_the_count(
        self, tmp_path, monkeypatch
    ):
        import repro.store.backend as backend

        monkeypatch.setattr(backend, "_MEMBERSHIP_CHUNK", 4)
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [0, 1, 2, 3, 4, 6, 8], store)
            sink = MemorySink()
            with pytest.raises(ValueError, match="missing 2 of 9"):
                emit_from_store(store, list(range(9)), sink=sink)
        # The first chunk was whole, so it streamed before the failure.
        assert [r["x"] for r in sink.records] == [0, 1, 2, 3, 4]


class _LoggingSink(ResultSink):
    """Records each written ``x`` with the worker calls made so far."""

    def __init__(self, check=None) -> None:
        self.log: list[tuple[int, int]] = []
        self._check = check

    def write(self, record) -> None:
        if self._check is not None:
            self._check(record)
        self.log.append((record["x"], len(CALLS)))


class TestStreamedEmission:
    """Records reach the sink as their rows are committed, in scenario
    order, not after the run's last scenario."""

    def test_a_half_warm_run_emits_its_stored_prefix_first(self, tmp_path):
        xs = list(range(10))
        with _store(tmp_path) as store:
            run_cached_batch(_tag, [*xs[:5], 8], store)
            CALLS.clear()
            sink = _LoggingSink()
            run = run_cached_batch(_tag, xs, store, sink=sink)
        assert (run.cached, CALLS) == (6, [5, 6, 7, 9])
        # 0..4 before the worker's first call; 8 is stored but follows
        # a miss, so it waits for the commit with the rest.
        assert sink.log == [
            *((x, 0) for x in range(5)),
            *((x, 4) for x in range(5, 10)),
        ]

    def test_each_checkpoint_commit_emits_what_it_made_durable(
        self, tmp_path
    ):
        xs = list(range(10))
        seen: list[int] = []

        with _store(tmp_path, commit_every=4) as store, _store(
            tmp_path
        ) as other:

            def committed(record) -> None:
                # A second connection sees every key written so far.
                seen.append(record["x"])
                keys = [scenario_key(x, "fp") for x in seen]
                assert list(other.missing_indices(keys)) == []

            sink = _LoggingSink(committed)
            run = run_cached_batch(_tag, xs, store, sink=sink)
        assert run.computed == 10
        assert sink.log == [
            *((x, 4) for x in range(4)),
            *((x, 8) for x in range(4, 8)),
            (8, 10),
            (9, 10),
        ]

    def test_a_repeated_key_is_emitted_once_its_first_copy_commits(
        self, tmp_path
    ):
        xs = [0, 1, 0, 2, 1, 3]
        with _store(tmp_path, commit_every=2) as store:
            sink = _LoggingSink()
            run = run_cached_batch(_tag, xs, store, sink=sink)
        assert (run.computed, CALLS) == (4, [0, 1, 2, 3])
        assert sink.log == [(0, 2), (1, 2), (0, 2), (2, 4), (1, 4), (3, 4)]

    def test_a_kill_leaves_the_committed_prefix_and_resume_rewrites_it(
        self, tmp_path
    ):
        xs = list(range(12))
        plain = tmp_path / "plain.jsonl"
        with JsonlSink(plain) as sink:
            run_batch(_tag, xs, sink=sink, collect=False)

        def kill(count: int) -> None:
            if count >= 10:
                raise KeyboardInterrupt

        out = tmp_path / "out.jsonl"
        with _store(tmp_path, commit_every=4) as store:
            with JsonlSink(out) as sink, pytest.raises(KeyboardInterrupt):
                run_cached_batch(_tag, xs, store, sink=sink, on_result=kill)
            assert len(store) == 10
        # Checkpoints committed 8 rows before the kill; the sink holds
        # exactly their lines, a prefix of the plain run's file.
        lines = plain.read_text().splitlines(keepends=True)
        assert out.read_text() == "".join(lines[:8])
        with _store(tmp_path) as store, JsonlSink(out) as sink:
            run = run_cached_batch(_tag, xs, store, sink=sink)
        assert (run.cached, run.computed) == (10, 2)
        assert out.read_bytes() == plain.read_bytes()
