"""Tests for the metrics registry (:mod:`repro.telemetry.metrics`):
histogram percentile math, Prometheus/JSON rendering, the live collector,
and the trace-report percentile tables.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver, build_population
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    JsonlTraceWriter,
    MetricsCollector,
    MetricsRegistry,
    TelemetryHub,
    collect_metrics,
    load_trace,
    write_metrics,
)
from repro.utils.rng import RngFactory


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.0, 8.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(16.0)
        assert h.mean == pytest.approx(3.2)
        assert h.counts == [1, 1, 2, 1]  # last bucket is +Inf overflow

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.0, 8.0):
            h.observe(v)
        # target rank 2.5 lands in the (2, 4] bucket, a quarter in.
        assert h.quantile(0.5) == pytest.approx(2.5)
        assert h.quantile(0.0) == pytest.approx(0.5)  # clamped to min
        assert h.quantile(1.0) == pytest.approx(8.0)  # clamped to max

    def test_quantile_clamps_to_observed_range(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe(3.0)
        # Interpolation inside (1, 10] would give ~5.5; the single
        # observation pins it.
        assert h.quantile(0.5) == pytest.approx(3.0)

    def test_empty_histogram_is_nan(self):
        h = Histogram("h", buckets=(1.0,))
        assert math.isnan(h.mean)
        assert math.isnan(h.quantile(0.5))
        assert all(math.isnan(v) for v in h.percentiles().values())

    def test_quantile_range_validation(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="strictly"):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly"):
            Histogram("h", buckets=())

    def test_to_json_cumulative_buckets(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            h.observe(v)
        doc = h.to_json()
        assert [b["count"] for b in doc["buckets"]] == [1, 2, 3]
        assert doc["buckets"][-1]["le"] == math.inf
        assert doc["count"] == 3 and doc["min"] == 0.5 and doc["max"] == 9.0


class TestRegistry:
    def test_metric_name_validation(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("has space")

    def test_counter_rejects_negative(self):
        c = Counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_get_or_create_is_idempotent_and_typed(self):
        r = MetricsRegistry()
        c = r.counter("repro_x_total")
        assert r.counter("repro_x_total") is c
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("repro_x_total")

    def test_to_json_shape(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h", buckets=(1.0,)).observe(0.5)
        doc = r.to_json()
        assert doc["counters"] == {"c": 2}
        assert doc["gauges"] == {"g": 1.5}
        assert doc["histograms"]["h"]["count"] == 1

    def test_prometheus_exposition_format(self):
        r = MetricsRegistry()
        r.counter("repro_steps_total", "steps").inc(7)
        h = r.histogram("repro_t_seconds", "t", buckets=(0.5, 1.0))
        h.observe(0.25)
        h.observe(2.0)
        text = r.render_prometheus()
        assert "# HELP repro_steps_total steps" in text
        assert "# TYPE repro_steps_total counter" in text
        assert "repro_steps_total 7" in text
        assert '# TYPE repro_t_seconds histogram' in text
        assert 'repro_t_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_t_seconds_bucket{le="1"} 1' in text
        assert 'repro_t_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_t_seconds_sum 2.25" in text
        assert "repro_t_seconds_count 2" in text
        assert text.endswith("\n")

    def test_write_metrics_format_follows_suffix(self, tmp_path):
        r = MetricsRegistry()
        r.counter("c").inc()
        write_metrics(r, tmp_path / "m.prom")
        assert "# TYPE c counter" in (tmp_path / "m.prom").read_text()
        write_metrics(r, tmp_path / "m.json")
        with open(tmp_path / "m.json", encoding="utf-8") as fh:
            assert json.load(fh)["counters"]["c"] == 1


class TestMetricsCollector:
    def test_folds_synthetic_events(self):
        hub = TelemetryHub()
        mc = MetricsCollector()
        hub.subscribe(mc)
        hub.emit("step_end", trainer="t0", steps=4, elapsed_s=0.4, losses={})
        hub.emit("fetch_stall", stall_s=0.01, materialize_s=0.02)
        hub.emit("exchange", trainer_a="a", trainer_b="b", nbytes=2048)
        hub.emit("tournament", round=0, trainer="a", partner="b",
                 own_score=1.0, partner_score=0.5, adopted=True)
        hub.emit("prefetch_fill", depth=2, fill=1, epoch=0, step=0,
                 materialize_s=0.01)
        hub.emit("datastore_fetch", batch_size=4, local_fetches=3,
                 remote_fetches=1, local_bytes=48, remote_bytes=16)
        hub.emit("round_end", round=0, train_s=0.4)
        r = mc.registry
        assert r["repro_steps_total"].value == 4
        assert mc.step_time.count == 1
        assert mc.step_time.sum == pytest.approx(0.1)  # per-step mean
        assert mc.fetch_latency.count == 1
        assert mc.stall.count == 1
        assert mc.exchange_size.count == 1
        assert r["repro_exchange_bytes_total"].value == 2048
        assert r["repro_adoptions_total"].value == 1
        assert r["repro_datastore_local_fetches_total"].value == 3
        assert r["repro_datastore_remote_fetches_total"].value == 1
        assert r["repro_prefetch_queue_fill"].value == 1
        assert r["repro_rounds_total"].value == 1

    def test_offline_collect_matches_live(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        spec = dataclasses.replace(tiny_spec, k=2)
        trainers = build_population(
            tiny_dataset,
            np.arange(tiny_dataset.n_samples - 64),
            RngFactory(9).child("metrics"),
            spec,
            tiny_autoencoder,
        )
        live = MetricsCollector()
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(2),
            LtfbConfig(steps_per_round=2, rounds=2),
        )
        driver.run(callbacks=[JsonlTraceWriter(trace), live])
        offline = collect_metrics(load_trace(trace))
        assert offline.to_json() == live.registry.to_json()
        assert (
            offline["repro_step_time_seconds"].count
            == live.step_time.count
            == 4
        )

    def test_trace_report_percentile_tables(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        from repro.telemetry.report import render_trace_report

        trace = tmp_path / "trace.jsonl"
        spec = dataclasses.replace(tiny_spec, k=2)
        trainers = build_population(
            tiny_dataset,
            np.arange(tiny_dataset.n_samples - 64),
            RngFactory(9).child("metrics2"),
            spec,
            tiny_autoencoder,
        )
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(2),
            LtfbConfig(steps_per_round=2, rounds=2),
        )
        driver.run(callbacks=[JsonlTraceWriter(trace)])
        text = render_trace_report(trace)
        assert "latency/size percentiles:" in text
        assert "step time:" in text and "fetch latency:" in text
        assert "p50=" in text and "p95=" in text and "p99=" in text
        assert "exchange size:" in text


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(3)
        g.set(-1.5)
        assert g.value == -1.5
        assert g.to_json() == -1.5


class TestLabels:
    def test_label_order_is_canonicalized(self):
        r = MetricsRegistry()
        a = r.gauge("repro_info", labels={"b": "2", "a": "1"})
        b = r.gauge("repro_info", labels={"a": "1", "b": "2"})
        assert a is b
        assert a.labels == (("a", "1"), ("b", "2"))

    def test_labeled_and_unlabeled_are_distinct_series(self):
        r = MetricsRegistry()
        plain = r.counter("repro_hits_total")
        labeled = r.counter("repro_hits_total", labels={"route": "x"})
        assert plain is not labeled
        plain.inc()
        labeled.inc(5)
        assert r["repro_hits_total"].value == 1
        values = {m.labels: m.value for m in r.series("repro_hits_total")}
        assert values == {(): 1, (("route", "x"),): 5}

    def test_family_kind_is_consistent_across_series(self):
        r = MetricsRegistry()
        r.counter("repro_hits_total", labels={"route": "x"})
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("repro_hits_total", labels={"route": "y"})

    def test_invalid_label_names_rejected(self):
        r = MetricsRegistry()
        for bad in ("has space", "0num", "dash-y", ""):
            with pytest.raises(ValueError):
                r.counter("repro_ok_total", labels={bad: "v"})

    def test_prometheus_escaping_and_determinism(self):
        r = MetricsRegistry()
        r.gauge(
            "repro_model_info",
            "deployed model",
            labels={"tag": 'r"1"\n', "winner": "t\\0"},
        ).set(1)
        r.gauge("repro_model_info", labels={"tag": "a", "winner": "b"}).set(0)
        text = r.render_prometheus()
        assert (
            'repro_model_info{tag="r\\"1\\"\\n",winner="t\\\\0"} 1' in text
        )
        # Series within a family are ordered by their rendered labels,
        # and repeated renders are byte-identical.
        assert text.index('tag="a"') < text.index('tag="r')
        assert text == r.render_prometheus()
        assert text.count("# TYPE repro_model_info gauge") == 1

    def test_histogram_bucket_rows_append_le_last(self):
        r = MetricsRegistry()
        h = r.histogram(
            "repro_lat_seconds", buckets=(0.5,), labels={"route": "q"}
        )
        h.observe(0.1)
        text = r.render_prometheus()
        assert 'repro_lat_seconds_bucket{route="q",le="0.5"} 1' in text
        assert 'repro_lat_seconds_bucket{route="q",le="+Inf"} 1' in text
        assert 'repro_lat_seconds_sum{route="q"} 0.1' in text
        assert 'repro_lat_seconds_count{route="q"} 1' in text

    def test_to_json_keys_labeled_series(self):
        r = MetricsRegistry()
        r.counter("repro_hits_total", labels={"route": "x"}).inc(3)
        doc = r.to_json()
        assert doc["counters"] == {'repro_hits_total{route="x"}': 3}
