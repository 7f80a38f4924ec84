"""Streaming sink round-trips and record flattening."""

import csv
import json
from dataclasses import dataclass

import pytest

from repro.engine.sinks import CsvSink, JsonlSink, MemorySink, as_record


@dataclass(frozen=True)
class _Sample:
    name: str
    value: float
    nested: dict


@dataclass(frozen=True)
class _Outer:
    q: float
    inner: _Sample


class TestAsRecord:
    def test_dataclass_flattening(self):
        record = as_record(_Sample("a", 1.5, {"x": 1, "y": 2}))
        assert record == {"name": "a", "value": 1.5, "nested.x": 1, "nested.y": 2}

    def test_a_nested_dataclass_is_splatted_as_its_asdict(self):
        outer = _Outer(1.0, _Sample("a", 2.5, {"x": 1}))
        assert as_record(outer) == {
            "q": 1.0,
            "inner.name": "a",
            "inner.value": 2.5,
            "inner.nested": {"x": 1},
        }

    def test_mapping_passthrough(self):
        assert as_record({"k": 1}) == {"k": 1}

    def test_scalar_wrapped(self):
        assert as_record(42) == {"value": 42}


class TestMemorySink:
    def test_collects_in_order(self):
        sink = MemorySink()
        sink.write({"i": 0})
        sink.write({"i": 1})
        assert [r["i"] for r in sink.records] == [0, 1]


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out" / "results.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"q": 50.0, "bound": 31.5})
            sink.write({"q": 60.0, "bound": 22.0})
            assert sink.written == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["q"] for line in lines] == [50.0, 60.0]

    def test_non_finite_floats_stay_strict_json(self, tmp_path):
        path = tmp_path / "diverged.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"bound": float("inf"), "gap": float("nan"), "q": 5.0})
        (line,) = path.read_text().splitlines()
        parsed = json.loads(line)  # strict parsers must accept the line
        assert parsed == {"bound": "inf", "gap": "nan", "q": 5.0}

    def test_write_after_close_rejected(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError):
            sink.write({"a": 1})


class TestCsvSink:
    def test_header_inferred_from_first_record(self, tmp_path):
        path = tmp_path / "results.csv"
        with CsvSink(path) as sink:
            sink.write({"q": 50.0, "bound": 31.5})
            sink.write({"q": 60.0, "bound": 22.0})
        rows = list(csv.DictReader(path.open()))
        assert rows[0] == {"q": "50.0", "bound": "31.5"}
        assert len(rows) == 2

    def test_explicit_columns(self, tmp_path):
        path = tmp_path / "results.csv"
        with CsvSink(path, columns=["bound", "q"]) as sink:
            sink.write({"q": 1.0, "bound": 2.0})
        assert path.read_text().splitlines()[0] == "bound,q"

    def test_schema_drift_fails_fast(self, tmp_path):
        with CsvSink(tmp_path / "r.csv") as sink:
            sink.write({"a": 1})
            with pytest.raises(ValueError):
                sink.write({"a": 1, "surprise": 2})
