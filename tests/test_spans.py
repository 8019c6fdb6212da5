"""Tests for span tracing (:mod:`repro.telemetry.spans`): the Tracer
unit behaviour, driver/trainer/pipeline instrumentation, cross-process
relay alignment, and the Chrome ``trace_event`` export.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver, build_population
from repro.exec import ProcessBackend, ThreadBackend
from repro.telemetry import (
    SPAN,
    JsonlTraceWriter,
    TelemetryHub,
    Tracer,
    export_chrome_trace,
    load_trace,
    load_trace_header,
)
from repro.utils.rng import RngFactory


class Sink:
    """Minimal emit() target for tracer unit tests; also usable as a hub
    subscriber (handle)."""

    def __init__(self) -> None:
        self.events: list[tuple[str, dict]] = []

    def emit(self, event_type: str, /, **payload) -> None:
        self.events.append((event_type, payload))

    def handle(self, event) -> None:
        self.events.append((event.type, dict(event.payload)))

    def on_run_begin(self, driver) -> None:
        pass

    def on_run_end(self, driver, history) -> None:
        pass

    def spans(self) -> list[dict]:
        return [p for t, p in self.events if t == SPAN]


def _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=4):
    spec = dataclasses.replace(tiny_spec, k=k)
    return build_population(
        tiny_dataset,
        np.arange(tiny_dataset.n_samples - 64),
        RngFactory(31).child("spans"),
        spec,
        tiny_autoencoder,
    )


def _driver(tiny_dataset, tiny_spec, tiny_autoencoder, backend=None, **cfg):
    trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
    val_ids = np.arange(tiny_dataset.n_samples - 64, tiny_dataset.n_samples)
    config = LtfbConfig(**{"steps_per_round": 2, "rounds": 2, **cfg})
    return LtfbDriver(
        trainers,
        np.random.default_rng(5),
        config,
        eval_batch={k: v[val_ids] for k, v in tiny_dataset.fields.items()},
        backend=backend,
    )


class TestTracer:
    def test_nesting_assigns_parent_and_inherits_track(self):
        sink = Sink()
        tracer = Tracer(sink)
        with tracer.span("outer", cat="run", track="driver"):
            with tracer.span("inner", cat="round"):
                pass
        inner, outer = sink.spans()  # emitted on exit: inner first
        assert inner["parent"] == outer["id"]
        assert "parent" not in outer
        assert inner["track"] == "driver"  # inherited from the parent
        assert inner["t0_s"] >= outer["t0_s"]
        assert inner["dur_s"] <= outer["dur_s"]

    def test_top_level_track_defaults_to_main(self):
        sink = Sink()
        with Tracer(sink).span("solo"):
            pass
        assert sink.spans()[0]["track"] == "main"

    def test_attrs_mutable_while_open(self):
        sink = Sink()
        tracer = Tracer(sink)
        with tracer.span("fetch", hits=0) as sp:
            sp.attrs["hits"] = 3
        assert sink.spans()[0]["attrs"] == {"hits": 3}

    def test_record_uses_measured_interval(self):
        sink = Sink()
        tracer = Tracer(sink, epoch=100.0)
        tracer.record("x", cat="exchange", t0=101.0, end=101.5, nbytes=8)
        payload = sink.spans()[0]
        assert payload["t0_s"] == pytest.approx(1.0)
        assert payload["dur_s"] == pytest.approx(0.5)
        assert payload["attrs"] == {"nbytes": 8}

    def test_record_parents_under_open_span(self):
        sink = Sink()
        tracer = Tracer(sink)
        with tracer.span("phase", track="driver"):
            tracer.record("exchange", t0=0.0, end=0.0)
        exchange, phase = sink.spans()
        assert exchange["parent"] == phase["id"]
        assert exchange["track"] == "driver"

    def test_child_shares_clock_origin(self):
        base = Tracer(None, epoch=5.0)
        sink = Sink()
        child = base.child(sink)
        assert child.epoch == base.epoch
        assert child.wall_origin == base.wall_origin
        assert child.sink is sink

    def test_none_sink_drops_spans(self):
        tracer = Tracer(None)
        with tracer.span("dropped"):
            pass
        tracer.record("also dropped", t0=0.0, end=1.0)

    def test_span_ids_unique(self):
        sink = Sink()
        tracer = Tracer(sink)
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [p["id"] for p in sink.spans()]
        assert len(set(ids)) == 5

    def test_parent_stacks_are_per_thread(self):
        sink = Sink()
        tracer = Tracer(sink)
        seen = {}

        def worker():
            with tracer.span("bg"):
                pass
            seen["done"] = True

        with tracer.span("fg", track="driver"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["done"]
        bg = next(p for p in sink.spans() if p["name"] == "bg")
        # The other thread's open span is not this thread's parent.
        assert "parent" not in bg
        assert bg["track"] == "main"


class TestHubTracing:
    def test_start_tracing_is_idempotent(self):
        hub = TelemetryHub()
        assert hub.tracer is None
        tracer = hub.start_tracing()
        assert hub.start_tracing() is tracer
        assert hub.tracer is tracer
        assert tracer.epoch == hub._t0
        assert tracer.wall_origin == hub.wall_origin

    def test_untraced_run_emits_no_spans(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        driver = _driver(tiny_dataset, tiny_spec, tiny_autoencoder)
        driver.run(callbacks=[JsonlTraceWriter(trace)])  # spans=False
        assert driver.telemetry.tracer is None
        assert all(e.type != SPAN for e in load_trace(trace))

    def test_traced_serial_run_hierarchy(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        driver = _driver(tiny_dataset, tiny_spec, tiny_autoencoder)
        driver.run(callbacks=[JsonlTraceWriter(trace, spans=True)])
        assert driver.telemetry.tracer is not None
        spans = [e.payload for e in load_trace(trace) if e.type == SPAN]
        by_id = {p["id"]: p for p in spans}
        names = {p["name"] for p in spans}
        assert {
            "run", "round", "phase:train", "phase:tournament", "phase:eval",
            "train_interval", "train_step", "materialize", "exchange",
        } <= names

        runs = [p for p in spans if p["name"] == "run"]
        assert len(runs) == 1 and runs[0]["track"] == "driver"
        for p in spans:
            if p["name"] == "round":
                assert by_id[p["parent"]]["name"] == "run"
            if p["name"].startswith("phase:"):
                assert by_id[p["parent"]]["name"] == "round"
            if p["name"] == "train_step":
                assert by_id[p["parent"]]["name"] == "train_interval"
                assert p["track"].startswith("serial:w0/")
            if p["name"] == "materialize":
                assert by_id[p["parent"]]["name"] == "train_step"

    def test_store_fetch_span_nests_and_annotates(self):
        from repro.datastore.store import DistributedDataStore

        hub = TelemetryHub()
        sink = Sink()
        hub.subscribe(sink)
        hub.start_tracing()
        store = DistributedDataStore(
            num_ranks=2, bytes_per_rank=1 << 20, telemetry=hub
        )
        sample = {"x": np.ones(4, dtype=np.float32)}
        for sid in range(4):
            store.cache_sample(sid % 2, sid, sample)
        with hub.tracer.span("materialize", cat="data", track="t"):
            store.fetch_batch([0, 1, 2, 3])
        spans = {p["name"]: p for p in sink.spans()}
        fetch, outer = spans["store_fetch"], spans["materialize"]
        assert fetch["parent"] == outer["id"]
        assert fetch["track"] == "t"
        attrs = fetch["attrs"]
        assert attrs["batch_size"] == 4
        assert attrs["local_fetches"] + attrs["remote_fetches"] == 4

    def test_untraced_store_fetch_emits_no_span(self):
        from repro.datastore.store import DistributedDataStore

        hub = TelemetryHub()
        sink = Sink()
        hub.subscribe(sink)
        store = DistributedDataStore(
            num_ranks=2, bytes_per_rank=1 << 20, telemetry=hub
        )
        sample = {"x": np.ones(4, dtype=np.float32)}
        for sid in range(2):
            store.cache_sample(sid, sid, sample)
        store.fetch_batch([0, 1])
        types = [t for t, _ in sink.events]
        assert SPAN not in types and "datastore_fetch" in types

    def test_thread_backend_spans_share_hub_clock(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        driver = _driver(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            backend=ThreadBackend(max_workers=2),
        )
        driver.run(callbacks=[JsonlTraceWriter(trace, spans=True)])
        spans = [e.payload for e in load_trace(trace) if e.type == SPAN]
        tracks = {p["track"] for p in spans if p["name"] == "train_interval"}
        assert tracks == {
            "thread:w0/trainer00", "thread:w1/trainer01",
            "thread:w0/trainer02", "thread:w1/trainer03",
        }
        run = next(p for p in spans if p["name"] == "run")
        run_end = run["t0_s"] + run["dur_s"]
        for p in spans:
            assert -0.001 <= p["t0_s"] <= run_end + 0.001


class TestProcessBackendTracing:
    """The ISSUE acceptance scenario: a traced process-backend run with
    prefetch enabled whose exported Chrome trace shows prefetch fills
    overlapping trainer steps on distinct tracks."""

    @pytest.fixture()
    def traced(self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path):
        trace = tmp_path / "trace.jsonl"
        driver = _driver(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            backend=ProcessBackend(max_workers=2, prefetch_depth=2),
            steps_per_round=4,
        )
        driver.run(callbacks=[JsonlTraceWriter(trace, spans=True)])
        return trace, [
            e.payload for e in load_trace(trace) if e.type == SPAN
        ]

    def test_worker_spans_relayed_and_aligned(self, traced):
        trace, spans = traced
        run = next(p for p in spans if p["name"] == "run")
        steps = [p for p in spans if p["name"] == "train_step"]
        assert steps, "worker train_step spans must be relayed"
        assert {p["track"].split("/")[0] for p in steps} == {
            "process:w0", "process:w1",
        }
        # Clock-offset alignment: every relayed worker span must land
        # inside the driver's run span (generous slack for wall-clock
        # disagreement between processes on one host).
        run_end = run["t0_s"] + run["dur_s"]
        for p in steps:
            assert run["t0_s"] - 0.25 <= p["t0_s"] <= run_end + 0.25

    def test_prefetch_fill_overlaps_train_steps(self, traced):
        _, spans = traced
        fills = [p for p in spans if p["name"] == "prefetch_fill"]
        steps = [p for p in spans if p["name"] == "train_step"]
        assert fills and steps
        assert all(p["track"].endswith("/prefetch") for p in fills)
        overlaps = any(
            f["track"] != s["track"]
            and max(f["t0_s"], s["t0_s"])
            < min(f["t0_s"] + f["dur_s"], s["t0_s"] + s["dur_s"])
            for f in fills
            for s in steps
        )
        assert overlaps, "prefetch fills must overlap trainer steps"

    def test_chrome_export(self, traced, tmp_path):
        trace, spans = traced
        out = tmp_path / "chrome.json"
        doc = export_chrome_trace(trace, out)
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == doc
        events = doc["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        assert len(complete) == len(spans)
        # One tid per track; driver first.
        meta = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert meta["driver"] == 1
        assert len(set(meta.values())) == len(meta)
        assert any(t.endswith("/prefetch") for t in meta)
        assert doc["otherData"]["run"]["backend"] == "process"

    def test_export_refuses_spanless_trace(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        trace = tmp_path / "plain.jsonl"
        driver = _driver(tiny_dataset, tiny_spec, tiny_autoencoder, rounds=1)
        driver.run(callbacks=[JsonlTraceWriter(trace)])
        with pytest.raises(ValueError, match="no span records"):
            export_chrome_trace(trace, tmp_path / "out.json")


class TestTraceHeader:
    def test_header_written_first_with_run_metadata(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        driver = _driver(tiny_dataset, tiny_spec, tiny_autoencoder)
        writer = JsonlTraceWriter(trace, metadata={"experiment": "unit"})
        driver.run(callbacks=[writer])
        with open(trace, encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first["type"] == "trace_header"
        assert first["version"] == JsonlTraceWriter.SCHEMA_VERSION
        header = load_trace_header(trace)
        assert header["run"]["driver"] == "LtfbDriver"
        assert header["run"]["backend"] == "serial"
        assert header["run"]["experiment"] == "unit"
        assert header["clock_origin_unix"] == pytest.approx(
            driver.telemetry.wall_origin
        )

    def test_headerless_trace_still_loads(self, tmp_path):
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text('{"type": "round_end", "round": 0}\n')
        assert load_trace_header(legacy) is None
        events = load_trace(legacy)
        assert [e.type for e in events] == ["round_end"]

    def test_header_only_legal_on_line_one(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"type": "round_end", "round": 0}\n'
            '{"type": "trace_header", "version": 3}\n'
        )
        with pytest.raises(
            ValueError, match="only valid as the first record"
        ):
            load_trace(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        # 99 is from the future; 2 is the last schema that still carried
        # ``health`` events beside ``alert`` ones.
        for version in (99, 2):
            other = tmp_path / f"v{version}.jsonl"
            other.write_text(
                f'{{"type": "trace_header", "version": {version}}}\n'
            )
            with pytest.raises(
                ValueError,
                match=rf"unsupported trace schema version {version} "
                rf"\(supported: \[3\]\)",
            ):
                load_trace(other)

    def test_context_manager_flushes_header_even_without_events(
        self, tmp_path
    ):
        trace = tmp_path / "empty.jsonl"
        with JsonlTraceWriter(trace):
            pass
        header = load_trace_header(trace)
        assert header is not None
        assert header["version"] == JsonlTraceWriter.SCHEMA_VERSION
        assert load_trace(trace) == []


class TestTraceExportCli:
    def test_exports_a_real_trace(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main

        trace = tmp_path / "trace.jsonl"
        driver = _driver(tiny_dataset, tiny_spec, tiny_autoencoder, rounds=1)
        driver.run(callbacks=[JsonlTraceWriter(trace, spans=True)])
        out = tmp_path / "exported.json"
        assert main(["trace-export", str(trace), "-o", str(out)]) == 0
        assert "trace-export: wrote" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_default_output_is_json_suffix(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        from repro.experiments.__main__ import main

        trace = tmp_path / "trace.jsonl"
        driver = _driver(tiny_dataset, tiny_spec, tiny_autoencoder, rounds=1)
        driver.run(callbacks=[JsonlTraceWriter(trace, spans=True)])
        assert main(["trace-export", str(trace)]) == 0
        assert (tmp_path / "trace.json").exists()

    def test_spanless_trace_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"type": "round_end", "round": 0}\n')
        assert main(["trace-export", str(trace)]) == 1
        assert "no span records" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["trace-export", str(tmp_path / "nope.jsonl")]) == 1
        assert "trace-export:" in capsys.readouterr().err
