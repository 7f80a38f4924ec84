"""ResultStore backend: persistence, fingerprints, manifests, merging."""

import math

import pytest

from repro.store import ResultStore, merge_stores


def _store(tmp_path, name="s.sqlite", **kwargs):
    return ResultStore(tmp_path / name, **kwargs)


class TestPutGet:
    def test_roundtrip(self, tmp_path):
        with _store(tmp_path) as store:
            store.put("k1", {"x": 1, "y": 2.5, "name": "a", "ok": True})
            assert store.get("k1") == {
                "x": 1,
                "y": 2.5,
                "name": "a",
                "ok": True,
            }

    def test_missing_key_is_none(self, tmp_path):
        with _store(tmp_path) as store:
            assert store.get("nope") is None
            assert "nope" not in store

    def test_contains_and_len(self, tmp_path):
        with _store(tmp_path) as store:
            store.put("a", {"v": 1})
            store.put("b", {"v": 2})
            assert "a" in store and "b" in store
            assert len(store) == 2

    def test_overwrite_replaces(self, tmp_path):
        with _store(tmp_path) as store:
            store.put("a", {"v": 1})
            store.put("a", {"v": 2})
            assert store.get("a") == {"v": 2}
            assert len(store) == 1

    def test_non_finite_floats_roundtrip_as_sink_strings(self, tmp_path):
        # The store freezes records in the sinks' strict-JSON form, so a
        # diverged bound reads back exactly as a JsonlSink line would
        # show it.
        with _store(tmp_path) as store:
            store.put("a", {"bound": math.inf, "err": math.nan})
            assert store.get("a") == {"bound": "inf", "err": "nan"}

    def test_iteration_is_key_sorted(self, tmp_path):
        with _store(tmp_path) as store:
            for key in ("c", "a", "b"):
                store.put(key, {"k": key})
            assert list(store.keys()) == ["a", "b", "c"]
            assert [k for k, _ in store.items()] == ["a", "b", "c"]


class TestPersistence:
    def test_rows_survive_reopen(self, tmp_path):
        with _store(tmp_path) as store:
            store.put("a", {"v": 1})
        with _store(tmp_path) as store:
            assert store.get("a") == {"v": 1}

    def test_uncommitted_batch_is_committed_on_close(self, tmp_path):
        store = _store(tmp_path, commit_every=1000)
        store.put("a", {"v": 1})
        store.close()
        with _store(tmp_path) as reopened:
            assert "a" in reopened

    def test_commit_every_checkpoints(self, tmp_path):
        # Puts beyond the batch size are durable even without close():
        # read through a second connection to the same file.
        store = _store(tmp_path, commit_every=2)
        for i in range(5):
            store.put(f"k{i}", {"v": i})
        with _store(tmp_path, name="s.sqlite") as reader:
            assert len(reader) >= 4  # two full batches committed
        store.close()

    def test_closed_store_rejects_use(self, tmp_path):
        store = _store(tmp_path)
        store.close()
        with pytest.raises(ValueError):
            store.put("a", {"v": 1})
        store.close()  # idempotent


class TestInvalidFile:
    def test_non_sqlite_file_raises_value_error(self, tmp_path):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("this is not a database")
        with pytest.raises(ValueError, match="not a valid result store"):
            ResultStore(bogus)


class TestFingerprint:
    def test_first_open_records_fingerprint(self, tmp_path):
        with _store(tmp_path, fingerprint="fp-1") as store:
            assert store.fingerprint == "fp-1"
        with _store(tmp_path) as store:
            assert store.fingerprint == "fp-1"

    def test_mismatched_fingerprint_rejected(self, tmp_path):
        with _store(tmp_path, fingerprint="fp-1"):
            pass
        with pytest.raises(ValueError, match="fingerprint"):
            _store(tmp_path, fingerprint="fp-2")

    def test_matching_fingerprint_accepted(self, tmp_path):
        with _store(tmp_path, fingerprint="fp-1"):
            pass
        with _store(tmp_path, fingerprint="fp-1") as store:
            assert store.fingerprint == "fp-1"


class TestManifest:
    def test_absent_by_default(self, tmp_path):
        with _store(tmp_path) as store:
            assert store.manifest is None

    def test_roundtrip_and_persistence(self, tmp_path):
        manifest = {"kind": "qsweep", "points": 40, "knots": 1024}
        with _store(tmp_path) as store:
            store.set_manifest(manifest)
        with _store(tmp_path) as store:
            assert store.manifest == manifest

    def test_identical_re_record_is_fine(self, tmp_path):
        manifest = {"kind": "qsweep", "points": 40, "knots": 1024}
        with _store(tmp_path) as store:
            store.set_manifest(manifest)
            store.set_manifest(dict(manifest))

    def test_conflicting_manifest_rejected(self, tmp_path):
        with _store(tmp_path) as store:
            store.set_manifest({"kind": "qsweep", "points": 40})
            with pytest.raises(ValueError, match="manifest"):
                store.set_manifest({"kind": "qsweep", "points": 41})


class TestMerge:
    def test_merge_from_combines_disjoint_rows(self, tmp_path):
        with _store(tmp_path, "a.sqlite", fingerprint="fp") as a, _store(
            tmp_path, "b.sqlite", fingerprint="fp"
        ) as b:
            a.put("k1", {"v": 1})
            b.put("k2", {"v": 2})
            added = a.merge_from(b)
            assert added == 1
            assert a.get("k2") == {"v": 2}
            assert len(a) == 2

    def test_merge_is_first_writer_wins_on_shared_keys(self, tmp_path):
        with _store(tmp_path, "a.sqlite", fingerprint="fp") as a, _store(
            tmp_path, "b.sqlite", fingerprint="fp"
        ) as b:
            a.put("k", {"v": "target"})
            b.put("k", {"v": "source"})
            assert a.merge_from(b) == 0
            assert a.get("k") == {"v": "target"}

    def test_merge_rejects_fingerprint_mismatch(self, tmp_path):
        with _store(tmp_path, "a.sqlite", fingerprint="fp-a") as a, _store(
            tmp_path, "b.sqlite", fingerprint="fp-b"
        ) as b:
            with pytest.raises(ValueError, match="fingerprint"):
                a.merge_from(b)

    def test_merge_stores_adopts_and_checks_manifests(self, tmp_path):
        manifest = {"kind": "qsweep", "points": 4, "knots": 64}
        with _store(tmp_path, "t.sqlite", fingerprint="fp") as target:
            sources = []
            for i in range(3):
                source = _store(
                    tmp_path, f"s{i}.sqlite", fingerprint="fp"
                )
                source.set_manifest(manifest)
                source.put(f"k{i}", {"v": i})
                sources.append(source)
            assert merge_stores(target, sources) == 3
            assert target.manifest == manifest
            assert len(target) == 3
            for source in sources:
                source.close()

