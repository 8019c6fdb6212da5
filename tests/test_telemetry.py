"""Tests for the telemetry subsystem and the unified driver API.

Covers the hub/event layer, the shipped callbacks (trace writer, metrics
collector, progress logger, resource sampler), instrumentation
of the data store and checkpointing, and the trace-report CLI.
"""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core.checkpoint import restore_trainer, trainer_checkpoint
from repro.core.enums import AdoptOptimizer, ExchangeScope
from repro.core.ensemble import build_population
from repro.core.kindependent import KIndependentDriver
from repro.core.ltfb import LtfbConfig, LtfbDriver
from repro.datastore.store import DistributedDataStore
from repro.telemetry import (
    EVENT_TYPES,
    Callback,
    JsonlTraceWriter,
    MetricsCollector,
    ProgressLogger,
    ResourceSampler,
    TelemetryHub,
    load_trace,
    render_trace_report,
    sample_resources,
    trace_summary,
)
from repro.utils.rng import RngFactory


class Recorder(Callback):
    """Collects every event for assertions."""

    def __init__(self) -> None:
        self.events = []
        self.run_begins = 0
        self.run_ends = 0

    def on_event(self, event) -> None:
        self.events.append(event)

    def on_run_begin(self, driver) -> None:
        self.run_begins += 1

    def on_run_end(self, driver, history) -> None:
        self.run_ends += 1

    def of_type(self, event_type):
        return [e for e in self.events if e.type == event_type]


@pytest.fixture()
def population(tiny_dataset, tiny_spec, tiny_autoencoder):
    def build(k=2, seed=7, **overrides):
        spec = dataclasses.replace(tiny_spec, k=k, **overrides)
        train_ids = np.arange(tiny_dataset.n_samples - 64)
        return build_population(
            tiny_dataset, train_ids, RngFactory(seed), spec, tiny_autoencoder
        )

    return build


@pytest.fixture()
def val_batch(tiny_dataset):
    ids = np.arange(tiny_dataset.n_samples - 64, tiny_dataset.n_samples)
    return {k: v[ids] for k, v in tiny_dataset.fields.items()}


class TestHub:
    def test_emit_without_subscribers_is_free(self):
        hub = TelemetryHub()
        assert hub.emit("step_end", trainer="t0") is None
        assert not hub.active

    def test_emit_dispatches_and_sequences(self):
        hub = TelemetryHub()
        rec = Recorder()
        hub.subscribe(rec)
        hub.subscribe(rec)  # idempotent
        e0 = hub.emit("round_end", round=0, train_s=1.0)
        e1 = hub.emit("eval", round=0, metrics={}, elapsed_s=0.0)
        assert [e.type for e in rec.events] == ["round_end", "eval"]
        assert (e0.sequence, e1.sequence) == (0, 1)
        assert e1.time_s >= e0.time_s >= 0.0

    def test_unknown_event_type_rejected(self):
        hub = TelemetryHub()
        with pytest.raises(ValueError, match="unknown event type"):
            hub.emit("banana")

    def test_unsubscribe(self):
        hub = TelemetryHub()
        rec = Recorder()
        hub.subscribe(rec)
        hub.unsubscribe(rec)
        hub.unsubscribe(rec)  # unknown is a no-op
        hub.emit("round_end", round=0)
        assert rec.events == []

    def test_per_type_hooks_dispatch(self):
        calls = []

        class Hooked(Callback):
            def on_tournament(self, event):
                calls.append(("typed", event.type))

            def on_event(self, event):
                calls.append(("generic", event.type))

        hub = TelemetryHub()
        hub.subscribe(Hooked())
        hub.emit("tournament", round=0, trainer="a", partner="b",
                 own_score=1.0, partner_score=2.0, adopted=False)
        hub.emit("round_end", round=0)
        assert calls == [
            ("typed", "tournament"),
            ("generic", "tournament"),
            ("generic", "round_end"),
        ]


class TestLtfbTelemetry:
    @pytest.fixture()
    def traced_run(self, population, val_batch, tmp_path):
        trainers = population(k=4)
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(0),
            LtfbConfig(steps_per_round=2, rounds=2),
            eval_batch=val_batch,
        )
        trace_path = tmp_path / "trace.jsonl"
        rec = Recorder()
        metrics = MetricsCollector()
        stream = io.StringIO()
        history = driver.run(
            callbacks=[
                JsonlTraceWriter(trace_path),
                rec,
                metrics,
                ProgressLogger(stream=stream),
            ]
        )
        return driver, history, trace_path, rec, metrics, stream

    def test_event_stream_shape(self, traced_run):
        driver, history, _, rec, _, _ = traced_run
        assert rec.run_begins == 1 and rec.run_ends == 1
        # 4 trainers x 2 rounds train intervals.
        assert len(rec.of_type("step_end")) == 8
        # 2 pairs x 2 rounds exchanges; 2 decisions per exchange.
        assert len(rec.of_type("exchange")) == 4
        assert len(rec.of_type("tournament")) == len(history.tournaments) == 8
        assert len(rec.of_type("eval")) == 2
        assert len(rec.of_type("round_end")) == 2
        for e in rec.of_type("step_end"):
            assert e.payload["steps"] == 2
            assert e.payload["elapsed_s"] >= 0.0
            assert "gen_loss" in e.payload["losses"]

    def test_counters_match_history(self, traced_run):
        _, history, trace_path, _, metrics, _ = traced_run
        registry = metrics.registry
        assert registry["repro_exchange_bytes_total"].value == history.exchange_bytes
        assert registry["repro_tournaments_total"].value == len(history.tournaments)
        assert trace_summary(trace_path)["counters"][
            "adoption_rate"
        ] == pytest.approx(history.adoption_rate())
        assert metrics.steps.value == 16  # 4 trainers x 2 rounds x 2 steps

    def test_timer_accumulates_phases(self, traced_run):
        _, _, trace_path, _, metrics, _ = traced_run
        totals = {p: c.value for p, c in metrics.phase_seconds.items()}
        assert metrics.registry["repro_rounds_total"].value == 2
        assert set(totals) == {"train", "tournament", "exchange", "eval"}
        assert totals["train"] > 0.0
        assert totals["eval"] > 0.0
        assert all(v >= 0.0 for v in totals.values())
        assert "s over 2 rounds" in render_trace_report(trace_path)

    def test_progress_logger_lines(self, traced_run):
        _, _, _, _, _, stream = traced_run
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[round 1/2]")
        assert "best val_loss" in lines[0]

    def test_jsonl_trace_round_trip(self, traced_run):
        _, history, trace_path, rec, _, _ = traced_run
        # Every line is one JSON object; line 1 is the versioned header,
        # the rest are events with known types.
        with open(trace_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        header, records = records[0], records[1:]
        assert header["type"] == "trace_header"
        assert header["version"] == JsonlTraceWriter.SCHEMA_VERSION
        assert header["run"]["driver"] == "LtfbDriver"
        assert len(records) == len(rec.events)
        assert {r["type"] for r in records} <= EVENT_TYPES
        assert {"step_end", "tournament", "eval", "exchange", "round_end"} <= {
            r["type"] for r in records
        }
        # Loading reproduces the stream; summarizing reproduces the run.
        events = load_trace(trace_path)
        assert [e.type for e in events] == [e.type for e in rec.events]
        summary = trace_summary(trace_path)
        counters = summary["counters"]
        assert counters["exchange_bytes"] == history.exchange_bytes
        assert counters["adoption_rate"] == pytest.approx(history.adoption_rate())
        assert summary["events"]["round_end"] == 2
        assert summary["phases"]["rounds"] == 2

    def test_callbacks_detach_after_run(self, traced_run):
        driver, _, _, rec, _, _ = traced_run
        assert driver.telemetry.callbacks == []
        n = len(rec.events)
        driver.telemetry.emit("round_end", round=99)
        assert len(rec.events) == n


class TestOnRoundShimRemoved:
    def test_run_rejects_on_round_keyword(self, population, val_batch):
        driver = LtfbDriver(
            population(k=2),
            np.random.default_rng(1),
            LtfbConfig(steps_per_round=1, rounds=3),
            eval_batch=val_batch,
        )
        with pytest.raises(TypeError):
            driver.run(on_round=lambda r, d: None)

    def test_callback_replaces_on_round(self, population):
        seen = []

        class Rounds(Callback):
            def on_round_end(self, event):
                seen.append(event.payload["round"])

        driver = KIndependentDriver(
            population(k=2), LtfbConfig(steps_per_round=1, rounds=2)
        )
        driver.run(callbacks=[Rounds()])
        assert seen == [0, 1]


class TestDatastoreTelemetry:
    def test_fetch_batch_emits_deltas(self):
        hub = TelemetryHub()
        rec = Recorder()
        hub.subscribe(rec)
        store = DistributedDataStore(
            num_ranks=2, bytes_per_rank=1 << 20, telemetry=hub
        )
        sample = {"x": np.ones(4, dtype=np.float32)}
        for sid in range(4):
            store.cache_sample(sid % 2, sid, sample)
        store.fetch_batch([0, 1, 2, 3])
        events = rec.of_type("datastore_fetch")
        assert len(events) == 1
        p = events[0].payload
        assert p["batch_size"] == 4
        assert p["local_fetches"] + p["remote_fetches"] == 4
        assert p["local_fetches"] == store.stats.local_fetches
        assert p["remote_fetches"] == store.stats.remote_fetches
        assert p["local_bytes"] + p["remote_bytes"] == 4 * 16


class TestCheckpointTelemetry:
    def test_save_and_restore_emit_events(self, population):
        t = population(k=1)[0]
        hub = TelemetryHub()
        rec = Recorder()
        hub.subscribe(rec)
        payload = trainer_checkpoint(t, telemetry=hub)
        restore_trainer(t, payload, telemetry=hub)
        events = rec.of_type("checkpoint")
        assert [e.payload["action"] for e in events] == ["save", "restore"]
        assert all(e.payload["nbytes"] == len(payload) for e in events)
        assert all(e.payload["trainer"] == t.name for e in events)

    def test_falls_back_to_trainer_hub(self, population):
        t = population(k=1)[0]
        hub = TelemetryHub()
        rec = Recorder()
        hub.subscribe(rec)
        t.telemetry = hub
        trainer_checkpoint(t)
        assert len(rec.of_type("checkpoint")) == 1


class TestEnums:
    def test_coerce_accepts_member_and_string(self):
        assert ExchangeScope.coerce("full") is ExchangeScope.FULL
        assert ExchangeScope.coerce(ExchangeScope.GENERATOR) is (
            ExchangeScope.GENERATOR
        )
        assert AdoptOptimizer.coerce("keep") is AdoptOptimizer.KEEP

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="ExchangeScope"):
            ExchangeScope.coerce("half")
        with pytest.raises(ValueError, match="AdoptOptimizer"):
            AdoptOptimizer.coerce("maybe")

    def test_enums_accepted_by_configs(self, population):
        cfg = LtfbConfig(steps_per_round=1, rounds=1, exchange=ExchangeScope.FULL)
        assert cfg.exchange is ExchangeScope.FULL
        assert cfg.exchange == "full"  # str-mixin keeps comparisons working
        a, b = population(k=2)
        pkg = a.exchange_package(ExchangeScope.FULL)
        assert pkg["scope"] == "full" and isinstance(pkg["scope"], str)
        b.adopt_package(pkg)

    def test_str_scope_still_accepted(self, population):
        a, _ = population(k=2)
        assert a.exchange_package("generator")["scope"] == "generator"
        with pytest.raises(ValueError):
            a.exchange_package("half")


class TestTraceReportCli:
    def test_summarizes_a_real_trace(self, population, val_batch, tmp_path, capsys):
        from repro.experiments.__main__ import main

        trace_path = tmp_path / "trace.jsonl"
        driver = LtfbDriver(
            population(k=2),
            np.random.default_rng(3),
            LtfbConfig(steps_per_round=1, rounds=2),
            eval_batch=val_batch,
        )
        driver.run(callbacks=[JsonlTraceWriter(trace_path)])
        assert main(["trace-report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall clock" in out
        assert "adoption rate" in out
        assert "exchange" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 1
        assert "trace-report:" in capsys.readouterr().err

    def test_malformed_trace_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "round_end"}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace(bad)
        unknown = tmp_path / "unknown.jsonl"
        unknown.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown event type"):
            load_trace(unknown)
        array = tmp_path / "array.jsonl"
        array.write_text('{"type": "round_end"}\n[1, 2]\n')
        with pytest.raises(ValueError, match=r"array.jsonl:2: not a JSON object"):
            load_trace(array)

    def test_json_format_is_machine_readable(
        self, population, val_batch, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main

        trace_path = tmp_path / "trace.jsonl"
        driver = LtfbDriver(
            population(k=2),
            np.random.default_rng(3),
            LtfbConfig(steps_per_round=1, rounds=2),
            eval_batch=val_batch,
        )
        driver.run(callbacks=[JsonlTraceWriter(trace_path), ResourceSampler()])
        assert main(["trace-report", str(trace_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phases"]["rounds"] == 2
        assert doc["counters"]["tournaments"] == 4  # k=2 trainers x 2 rounds
        assert doc["events"]["round_end"] == 2
        assert "repro_step_time_seconds" in doc["percentiles"]
        # Sampler: begin + 2 rounds + end; serial backend: one per round.
        assert doc["resources"]["driver"]["samples"] == 6
        assert doc["health"] == [] and doc["spans"] is None
        # The same dict is importable directly.
        assert trace_summary(trace_path)["phases"]["rounds"] == 2


def _write_trace(path, events) -> None:
    hub = TelemetryHub()
    with JsonlTraceWriter(path) as writer:
        hub.subscribe(writer)
        for event_type, payload in events:
            hub.emit(event_type, **payload)


def _ingest(**payload) -> tuple[str, dict]:
    base = dict(depth=4, cursor=8, store_occupancy=0.5, paused=False)
    return ("ingest", {**base, **payload})


class TestTraceSummaryGolden:
    """``trace_summary``'s folded sections — the additive ones and the
    pairing, eval and resource state — pinned on a synthetic stream that
    carries every field they read, with and without the optional ones.
    Compared as JSON text too, so key order and int-vs-float survive
    (``1 == 1.0`` would hide them)."""

    EVENTS = [
        ("step_end", dict(trainer="t0", steps=2, elapsed_s=0.5,
                          backend="process", worker=0,
                          latent_hits=6, latent_misses=2)),
        ("step_end", dict(trainer="t1", steps=2, elapsed_s=0.25,
                          backend="process", worker=1,
                          latent_hits=8, latent_misses=0)),
        ("step_end", dict(trainer="t2", steps=2, elapsed_s=0.125,
                          backend="process", worker=10)),
        # A pre-backend trace line: no backend/worker, no latent fields.
        ("step_end", dict(trainer="old", steps=3, elapsed_s=0.75)),
        ("fetch_stall", dict(trainer="t0", stall_s=0.125, materialize_s=0.5,
                             backend="process", worker=0)),
        ("fetch_stall", dict(trainer="t1", stall_s=0.25, materialize_s=0.125,
                             backend="process", worker=1)),
        ("fetch_stall", dict(trainer="t0", stall_s=0.0625)),
        ("prefetch_fill", dict(trainer="t0", fill=2)),
        ("prefetch_fill", dict(trainer="t0", fill=1)),
        ("prefetch_fill", dict(trainer="t1", fill=0)),
        ("datastore_fetch", dict(batch_size=4, local_fetches=3,
                                 remote_fetches=1, local_bytes=300,
                                 remote_bytes=100)),
        ("checkpoint", dict(action="save", trainer="t0", nbytes=4096)),
        ("checkpoint", dict(action="restore", trainer="t0", nbytes=4096)),
        ("checkpoint", dict(action="save", trainer="t1", nbytes=2048)),
        ("exchange", dict(round=0, a="t0", b="t1", nbytes=1024)),
        ("exchange", dict(round=0, a="t2", b="old", nbytes=3072)),
        ("tournament", dict(round=0, trainer="t0", partner="t1",
                            adopted=True)),
        ("tournament", dict(round=0, trainer="t1", partner="t0",
                            adopted=False)),
        ("tournament", dict(round=0, trainer="t2", partner="old",
                            adopted=False)),
        _ingest(round=0, admitted=8, evicted=2, stale=1, store_evictions=3,
                universe_version=1, universe_size=72, producer_lag=5,
                channel_occupancy=0.25),
        ("round_end", dict(round=0, train_s=1.5, tournament_s=0.125,
                           exchange_s=0.0625, eval_s=0.25)),
        # Older ingest payload: no channel_occupancy; this poll paused.
        _ingest(round=1, admitted=4, evicted=1, stale=0, store_evictions=0,
                universe_version=2, universe_size=80, producer_lag=3,
                paused=True),
        _ingest(round=1, admitted=2, evicted=0, stale=1, store_evictions=1,
                universe_version=3, universe_size=88, producer_lag=7,
                channel_occupancy=0.75),
        ("round_end", dict(round=1, train_s=1.25, tournament_s=0.125,
                           exchange_s=0.0625)),
        # Pairing census: two topologies, a repeated pair (t1-t0 is
        # t0-t1 unordered) and byes.
        ("pairing", dict(round=0, topology="ring",
                         pairs=[["t0", "t1"], ["t2", "old"]], bye=[])),
        ("pairing", dict(round=1, topology="ring", pairs=[["t1", "t0"]],
                         bye=["t2"])),
        ("pairing", dict(round=2, topology="random", pairs=[["t0", "t2"]],
                         bye=["old", "t2"])),
        # Quality probes: a non-finite reading is skipped, a trainer
        # without the primary metric gets no point, and a driver eval
        # snapshot (``metrics``, no ``divergence``) is not a probe pass.
        ("eval", dict(round=0, metric="js",
                      divergence={"t0": {"js": 0.5, "kl": 1.0},
                                  "t1": {"js": float("nan")}})),
        ("eval", dict(round=0, metrics={"t0": {"val_loss": 1.0}})),
        ("eval", dict(round=1, metric="js",
                      divergence={"t0": {"js": 0.25}, "t1": {"js": 0.75}})),
        ("eval", dict(round=1, metric="js",
                      divergence={"t0": {"js": 0.375}, "t1": {"kl": 0.5}})),
        # Resource samples from two sources, one without CPU fields, and
        # a pre-source payload.
        ("resource_sample", dict(source="driver", rss_bytes=1000,
                                 peak_rss_bytes=2000, cpu_user_s=0.5,
                                 cpu_system_s=0.25)),
        ("resource_sample", dict(source="worker0", backend="process",
                                 worker=0, rss_bytes=4000,
                                 peak_rss_bytes=4096, cpu_user_s=1.0,
                                 cpu_system_s=0.125)),
        ("resource_sample", dict(source="driver", rss_bytes=500,
                                 peak_rss_bytes=3000, cpu_user_s=0.75,
                                 cpu_system_s=0.375)),
        ("resource_sample", dict(source="worker0", rss_bytes=3000,
                                 peak_rss_bytes=4096)),
        ("resource_sample", dict(rss_bytes=10, peak_rss_bytes=20)),
    ]

    PHASES = {
        "train": 2.75, "tournament": 0.25, "exchange": 0.125, "eval": 0.25,
        "total": 3.375, "rounds": 2,
    }

    COUNTERS = {
        "rounds": 2,
        "steps": 9,
        "exchanges": 2,
        "exchange_bytes": 4096,
        "tournaments": 3,
        "adoptions": 1,
        "adoption_rate": 1 / 3,
        "fetch_stalls": 3,
        "fetch_stall_s": 0.4375,
        "fetch_overlap_s": 0.375,
        "prefetch_fills": 3,
        "prefetch_mean_fill": 1.0,
        "latent_hits": 14,
        "latent_misses": 2,
        "latent_hit_ratio": 0.875,
        "datastore_local_fetches": 3,
        "datastore_remote_fetches": 1,
        "datastore_local_bytes": 300,
        "datastore_remote_bytes": 100,
        "remote_fetch_fraction": 0.25,
        "checkpoint_saves": 2,
        "checkpoint_restores": 1,
        "checkpoint_bytes": 10240,
        "train_s[process/worker0]": 0.5,
        "train_s[process/worker1]": 0.25,
        "train_s[process/worker10]": 0.125,
        "stall_s[process/worker0]": 0.125,
        "stall_s[process/worker1]": 0.25,
        "overlap_s[process/worker0]": 0.375,
        "overlap_s[process/worker1]": 0.0,
    }

    INGEST = {
        "polls": 3,
        "admitted": 14,
        "evicted": 3,
        "stale": 2,
        "store_evictions": 4,
        "universe_size": 88,
        "universe_version": 3,
        "max_producer_lag": 7,
        "paused_polls": 1,
        "mean_channel_occupancy": 0.5,
        "peak_channel_occupancy": 0.75,
    }

    PAIRINGS = {
        "rounds": 3,
        "topologies": {"ring": 2, "random": 1},
        "pairs": 4,
        "unique_pairs": 3,
        "byes": 3,
        "bye_counts": {"t2": 2, "old": 1},
        "partners": {"old": 1, "t0": 2, "t1": 1, "t2": 2},
    }

    EVAL = {
        "probes": 3,
        "metric": "js",
        "last_round": 1,
        "trainers": {
            "t0": {"last": 0.375, "best": 0.25, "points": 3},
            "t1": {"last": 0.75, "best": 0.75, "points": 1},
        },
    }

    RESOURCES = {
        "driver": {"samples": 2, "rss_bytes": 1000, "peak_rss_bytes": 3000,
                   "cpu_user_s": 0.75, "cpu_system_s": 0.375},
        "worker0": {"samples": 2, "rss_bytes": 4000, "peak_rss_bytes": 4096,
                    "cpu_user_s": 1.0, "cpu_system_s": 0.125},
        "process": {"samples": 1, "rss_bytes": 10, "peak_rss_bytes": 20,
                    "cpu_user_s": 0.0, "cpu_system_s": 0.0},
    }

    @staticmethod
    def _assert_section(actual, expected) -> None:
        assert actual == expected
        assert json.dumps(actual) == json.dumps(expected)

    def test_sections_of_a_full_stream(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _write_trace(trace, self.EVENTS)
        summary = trace_summary(trace)
        self._assert_section(summary["phases"], self.PHASES)
        self._assert_section(summary["counters"], self.COUNTERS)
        self._assert_section(summary["ingest"], self.INGEST)
        self._assert_section(summary["pairings"], self.PAIRINGS)
        self._assert_section(summary["eval"], self.EVAL)
        self._assert_section(summary["resources"], self.RESOURCES)

    def test_sections_of_an_empty_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _write_trace(trace, [])
        summary = trace_summary(trace)
        self._assert_section(summary["phases"], {
            "train": 0.0, "tournament": 0.0, "exchange": 0.0, "eval": 0.0,
            "total": 0.0, "rounds": 0,
        })
        self._assert_section(summary["counters"], {
            "rounds": 0, "steps": 0, "exchanges": 0, "exchange_bytes": 0,
            "tournaments": 0, "adoptions": 0, "adoption_rate": 0.0,
            "fetch_stalls": 0, "fetch_stall_s": 0.0, "fetch_overlap_s": 0.0,
            "prefetch_fills": 0, "prefetch_mean_fill": 0.0,
            "latent_hits": 0, "latent_misses": 0, "latent_hit_ratio": 0.0,
            "datastore_local_fetches": 0, "datastore_remote_fetches": 0,
            "datastore_local_bytes": 0, "datastore_remote_bytes": 0,
            "remote_fetch_fraction": 0.0, "checkpoint_saves": 0,
            "checkpoint_restores": 0, "checkpoint_bytes": 0,
        })
        assert summary["ingest"] is None
        assert summary["pairings"] is None
        assert summary["eval"] is None
        self._assert_section(summary["resources"], {})


class TestResourceTelemetry:
    def test_sample_resources_shape(self):
        s = sample_resources()
        assert set(s) == {"rss_bytes", "peak_rss_bytes", "cpu_user_s", "cpu_system_s"}
        assert s["peak_rss_bytes"] > 0 and s["cpu_user_s"] >= 0.0

    def test_sampler_emits_per_round_and_lifecycle(self, population):
        driver = KIndependentDriver(
            population(k=2), LtfbConfig(steps_per_round=1, rounds=3)
        )
        rec = Recorder()
        driver.run(callbacks=[rec, ResourceSampler(every_rounds=2)])
        driver_samples = [
            e for e in rec.of_type("resource_sample")
            if e.payload["source"] == "driver" and "backend" not in e.payload
        ]
        # run begin + round 2 (every 2nd of 3 rounds) + run end.
        assert len(driver_samples) == 3

    def test_serial_backend_samples_per_train_phase(self, population):
        driver = KIndependentDriver(
            population(k=2), LtfbConfig(steps_per_round=1, rounds=2)
        )
        rec = Recorder()
        driver.run(callbacks=[rec])
        backend_samples = [
            e for e in rec.of_type("resource_sample")
            if e.payload.get("backend") == "serial"
        ]
        assert len(backend_samples) == 2
        assert all(e.payload["source"] == "driver" for e in backend_samples)

    def test_process_backend_relays_worker_samples(self, population, val_batch):
        from repro.exec import resolve_backend
        from repro.telemetry import LiveAggregator

        driver = LtfbDriver(
            population(k=2),
            np.random.default_rng(5),
            LtfbConfig(steps_per_round=1, rounds=2),
            eval_batch=val_batch,
            backend=resolve_backend("process", max_workers=2),
        )
        rec = Recorder()
        live = LiveAggregator()
        driver.run(callbacks=[rec, live])
        assert rec.of_type("resource_sample")
        summary = live.snapshot()["resources"]
        assert {"worker0", "worker1"} <= set(summary)
        for worker in ("worker0", "worker1"):
            row = summary[worker]
            assert row["samples"] == 2  # one per train phase
            assert row["peak_rss_bytes"] > 0

    def test_export_renders_counter_tracks(self, population, val_batch, tmp_path):
        from repro.telemetry import export_chrome_trace

        trace_path = tmp_path / "trace.jsonl"
        driver = LtfbDriver(
            population(k=2),
            np.random.default_rng(6),
            LtfbConfig(steps_per_round=1, rounds=1),
            eval_batch=val_batch,
        )
        driver.run(
            callbacks=[
                JsonlTraceWriter(trace_path, spans=True), ResourceSampler(),
            ]
        )
        doc = export_chrome_trace(trace_path, tmp_path / "trace.json")
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert {"rss[driver]", "cpu[driver]"} <= {e["name"] for e in counters}
        rss = next(e for e in counters if e["name"] == "rss[driver]")
        assert rss["args"]["peak_mb"] > 0

    def test_metrics_collector_folds_samples_into_gauges(self):
        from repro.telemetry import MetricsCollector

        hub = TelemetryHub()
        collector = MetricsCollector()
        hub.subscribe(collector)
        hub.emit(
            "resource_sample", source="driver",
            rss_bytes=100, peak_rss_bytes=500,
            cpu_user_s=1.0, cpu_system_s=0.5,
        )
        hub.emit(
            "resource_sample", source="worker0",
            rss_bytes=50, peak_rss_bytes=300,
            cpu_user_s=2.0, cpu_system_s=0.25,
        )
        r = collector.registry
        assert r["repro_rss_bytes"].value == 50.0  # last sample
        assert r["repro_peak_rss_bytes"].value == 500.0  # max across sources
        assert r["repro_cpu_seconds"].value == pytest.approx(2.25)

    def test_report_renders_resources_section(self, population, tmp_path):
        from repro.telemetry import render_trace_report

        trace_path = tmp_path / "trace.jsonl"
        driver = KIndependentDriver(
            population(k=2), LtfbConfig(steps_per_round=1, rounds=1)
        )
        driver.run(callbacks=[JsonlTraceWriter(trace_path), ResourceSampler()])
        out = render_trace_report(trace_path)
        assert "resources:" in out
        assert "driver: peak rss" in out

    def test_sampler_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="every_rounds"):
            ResourceSampler(every_rounds=0)
