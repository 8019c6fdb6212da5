"""Tests for the live observability plane (:mod:`repro.telemetry.live`):
rolling windows, alert dedup/cooldown, the live aggregator's detections
landing in ``History.health_warnings`` *during* a real run on every
execution backend and reaching every ``alert`` consumer, flight-recorder
bundles (crash hook, critical auto-dump, SIGTERM-free manual path), the
serve status endpoint, atomic metrics publication, the trace-report
pairing/ingest sections, and the watch CLI.
"""

from __future__ import annotations

import dataclasses
import json
import math
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver
from repro.core.ensemble import build_population
from repro.exec import resolve_backend
from repro.telemetry import (
    Alert,
    AlertEngine,
    FlightRecorder,
    JsonlTraceWriter,
    LiveAggregator,
    RollingWindow,
    TelemetryHub,
    load_bundle,
)
from repro.telemetry.live.recorder import SUBSYSTEM_OF
from repro.utils.rng import RngFactory


class _History(SimpleNamespace):
    def __init__(self):
        super().__init__(health_warnings=[])


def _steps(hub, n, trainer="t0", elapsed_s=0.01, **extra):
    for i in range(n):
        hub.emit(
            "step_end", trainer=trainer, steps=1, steps_done=i + 1,
            losses={"loss": 1.0}, elapsed_s=elapsed_s, backend="serial",
            worker=0, **extra,
        )


class TestRollingWindow:
    def test_ring_bound_and_total(self):
        w = RollingWindow(maxlen=4)
        for i in range(10):
            w.push(float(i), float(i))
        assert len(w) == 4
        assert w.total == 10
        assert w.values == [6.0, 7.0, 8.0, 9.0]
        assert w.last == 9.0
        assert w.min == 6.0 and w.max == 9.0
        assert w.mean == pytest.approx(7.5)

    def test_percentiles_interpolate(self):
        w = RollingWindow()
        for v in (1.0, 2.0, 3.0, 4.0):
            w.push(0.0, v)
        assert w.percentile(0) == 1.0
        assert w.percentile(100) == 4.0
        assert w.percentile(50) == pytest.approx(2.5)
        snap = w.snapshot()
        assert snap["count"] == 4 and snap["p50"] == pytest.approx(2.5)

    def test_empty_window_is_safe(self):
        w = RollingWindow()
        assert not w
        assert w.last is None
        assert w.percentile(95) == 0.0
        assert w.rate_per_s() == 0.0

    def test_rate_per_s(self):
        w = RollingWindow()
        w.push(0.0, 10.0)
        w.push(2.0, 30.0)
        assert w.rate_per_s() == pytest.approx(20.0)

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            RollingWindow(maxlen=0)


class TestAlertEngine:
    def _alert(self, **kw):
        base = dict(kind="k", severity="warning", message="m", source="data")
        base.update(kw)
        return Alert(**base)

    def test_dedup_within_cooldown_and_refire_after(self):
        engine = AlertEngine(cooldown_rounds=3)
        assert engine.fire(self._alert(round_index=0))
        assert not engine.fire(self._alert(round_index=1))
        assert not engine.fire(self._alert(round_index=2))
        assert engine.fire(self._alert(round_index=3))
        assert len(engine.alerts) == 2

    def test_distinct_keys_do_not_dedup(self):
        engine = AlertEngine(cooldown_rounds=10)
        assert engine.fire(self._alert(round_index=0, trainer="a"))
        assert engine.fire(self._alert(round_index=0, trainer="b"))
        assert engine.fire(self._alert(round_index=0, kind="other"))

    def test_critical_escalation_pierces_cooldown_once(self):
        engine = AlertEngine(cooldown_rounds=100)
        assert engine.fire(self._alert(round_index=0))
        crit = self._alert(round_index=1, severity="critical")
        assert engine.fire(crit)
        # Only once: the same critical re-fired inside cooldown suppresses.
        assert not engine.fire(self._alert(round_index=2, severity="critical"))

    def test_bounded_alert_list(self):
        engine = AlertEngine(cooldown_rounds=0, max_alerts=5)
        for r in range(9):
            assert engine.fire(self._alert(round_index=r))
        assert len(engine.alerts) == 5
        assert engine.dropped == 4
        snap = engine.snapshot()
        assert snap["count"] == 5 and snap["dropped"] == 4

    def test_payload_round_trip(self):
        alert = self._alert(round_index=4, trainer="t1", value=1.5,
                            threshold=1.0, neighborhood="cell(0,0)")
        assert Alert.from_payload(alert.to_payload()) == alert


class TestLiveAggregator:
    def test_nan_loss_is_critical(self):
        hub = TelemetryHub()
        history = _History()
        agg = LiveAggregator().attach(hub, history)
        seen = []

        class Sink:
            def handle(self, event):
                if event.type == "alert":
                    seen.append(dict(event.payload))

        hub.subscribe(agg)
        hub.subscribe(Sink())
        hub.emit(
            "step_end", trainer="t0", steps=1, steps_done=1,
            losses={"gan": math.nan}, elapsed_s=0.01,
        )
        # One detection, three sinks: the engine, history, the hub.
        assert len(history.health_warnings) == 1
        w = history.health_warnings[0]
        assert w.kind == "nan_loss" and w.severity == "critical"
        assert w.trainer == "t0"
        assert agg.alerts == [w]
        assert seen == [w.to_payload()]

    def test_ingest_backpressure_and_serve_slo_burn(self):
        hub = TelemetryHub()
        agg = LiveAggregator(serve_slo_s=0.01, slo_min_samples=4).attach(hub)
        hub.subscribe(agg)
        hub.emit(
            "ingest", round=0, admitted=4, evicted=0, stale=0,
            store_evictions=0, depth=8, cursor=4, universe_version=1,
            universe_size=64, producer_lag=9, store_occupancy=0.0,
            paused=True, channel_occupancy=1.0,
        )
        for _ in range(6):
            hub.emit("serve", size=4, queue_depth=2, forward_s=0.05,
                     wait_s=0.01, version=1)
        kinds = {a.kind for a in agg.alerts}
        assert "ingest_backpressure" in kinds
        assert "serve_slo_burn" in kinds
        snap = agg.snapshot()
        assert snap["ingest"]["paused"] is True
        assert snap["serve"]["slo_burn"] == 1.0

    def test_stall_regression_on_round_end(self):
        hub = TelemetryHub()
        agg = LiveAggregator(
            stall_fraction_threshold=0.5, warmup_rounds=1
        ).attach(hub)
        hub.subscribe(agg)
        # Warmup round: stall is ignored even if huge.
        hub.emit("fetch_stall", trainer="t0", stall_s=9.0, overlap_s=0.0)
        hub.emit("round_end", round=0, train_s=1.0)
        assert not agg.alerts
        hub.emit("fetch_stall", trainer="t0", stall_s=0.8, overlap_s=0.0)
        hub.emit("round_end", round=1, train_s=1.0)
        assert [a.kind for a in agg.alerts] == ["stall_regression"]
        # The per-round accumulator resets: a healthy round stays quiet.
        hub.emit("round_end", round=2, train_s=1.0)
        assert len(agg.alerts) == 1

    def test_stall_rule_weighs_summed_trainer_time(self):
        """Two trainers training concurrently for a 1 s phase: their 0.8 s
        of summed stall is 80% of the wall clock but 40% of the 2 s they
        trained, which is the share the rule judges."""
        hub = TelemetryHub()
        agg = LiveAggregator(
            stall_fraction_threshold=0.5, warmup_rounds=0
        ).attach(hub)
        hub.subscribe(agg)
        for name in ("t0", "t1"):
            hub.emit("fetch_stall", trainer=name, stall_s=0.4, overlap_s=0.0)
            hub.emit("step_end", trainer=name, steps=4, elapsed_s=1.0)
        hub.emit("round_end", round=0, train_s=1.0)
        assert not agg.alerts
        for name in ("t0", "t1"):
            hub.emit("fetch_stall", trainer=name, stall_s=0.6, overlap_s=0.0)
            hub.emit("step_end", trainer=name, steps=4, elapsed_s=1.0)
        hub.emit("round_end", round=1, train_s=1.0)
        assert [a.kind for a in agg.alerts] == ["stall_regression"]

    def test_foreign_alerts_admitted_without_reemission(self):
        """``alert`` events the aggregator did not fire itself (the
        surrogate server's admission warnings, a replayed trace) go
        through the same engine: once into history, never re-emitted."""
        hub = TelemetryHub()
        history = _History()
        agg = LiveAggregator().attach(hub, history)
        emitted = []

        class Sink:
            def handle(self, event):
                if event.type == "alert":
                    emitted.append(event.payload)

        hub.subscribe(agg)
        hub.subscribe(Sink())
        payload = Alert(
            kind="serve_overload", severity="critical",
            message="request queue saturated", source="serve",
        ).to_payload()
        hub.emit("alert", **payload)
        hub.emit("alert", **payload)  # same problem, inside the cooldown
        assert [w.kind for w in history.health_warnings] == ["serve_overload"]
        assert len(emitted) == 2

    def test_timing_noise_is_a_reading_not_an_alert(self):
        """Step time and fetch stall carry host jitter: a 1000x outlier in
        either shows in the windows and fires nothing."""
        hub = TelemetryHub()
        agg = LiveAggregator().attach(hub)
        hub.subscribe(agg)
        _steps(hub, 12)
        _steps(hub, 1, elapsed_s=10.0)
        for stall_s in [0.001] * 12 + [1.0]:
            hub.emit("fetch_stall", trainer="t0", stall_s=stall_s,
                     materialize_s=stall_s)
        assert agg.alerts == []
        windows = agg.snapshot()["windows"]
        assert windows["step_time_s"]["max"] == 10.0
        assert windows["fetch_stall_s"]["max"] == 1.0
        assert agg.snapshot()["trainers"]["t0"]["last_step_s"] == 10.0

    def test_snapshot_shape_is_json_encodable(self):
        hub = TelemetryHub()
        agg = LiveAggregator().attach(hub)
        hub.subscribe(agg)
        _steps(hub, 3)
        hub.emit("pairing", topology="ring", round=0, pairs=[["t0", "t1"]],
                 bye=[], neighborhoods=[None])
        hub.emit("round_end", round=0, train_s=0.03)
        snap = agg.snapshot()
        json.dumps(snap)
        assert snap["round"] == 0
        assert snap["trainers"]["t0"]["steps_done"] == 3
        assert snap["pairing"]["pairs"] == [["t0", "t1"]]
        assert "step_time_s" in snap["windows"]

    def test_cumulative_state_is_bounded_by_the_population(self):
        # 500 rounds on k = 4: the pairing census, quality rows and
        # resource rows grow with the population, not the run.
        hub = TelemetryHub()
        agg = LiveAggregator().attach(hub)
        hub.subscribe(agg)
        names = ["t0", "t1", "t2", "t3"]
        rng = np.random.default_rng(0)
        for r in range(500):
            a, b, c, d = rng.permutation(names).tolist()
            topology = "ring" if r % 2 else "random"
            hub.emit("pairing", topology=topology, round=r,
                     pairs=[[a, b]], bye=[c, d])
            hub.emit("eval", round=r, metric="js",
                     divergence={n: {"js": 0.1 + (r % 7) / 10} for n in names})
            hub.emit("resource_sample", source=f"worker{r % 2}",
                     rss_bytes=r, peak_rss_bytes=r, cpu_user_s=r,
                     cpu_system_s=0.0)
        census = agg.snapshot()["pairings"]
        assert census["rounds"] == 500 and census["pairs"] == 500
        assert census["byes"] == 1000
        assert census["topologies"] == {"random": 250, "ring": 250}
        assert len(agg._unique_pairs) <= 6 and census["unique_pairs"] <= 6
        assert len(agg._partners) <= 4 and len(census["partners"]) <= 4
        assert len(census["bye_counts"]) <= 4
        assert sorted(agg.quality) == names
        assert all(row["points"] == 500 for row in agg.quality.values())
        assert agg.snapshot()["eval"]["probes"] == 500
        assert sorted(agg.resources) == ["worker0", "worker1"]


def _tiny_driver(tiny_dataset, tiny_spec, tiny_autoencoder, *, seed, backend,
                 rounds=2, steps_per_round=2):
    spec = dataclasses.replace(tiny_spec, k=2)
    trainers = build_population(
        tiny_dataset,
        np.arange(tiny_dataset.n_samples - 64),
        RngFactory(seed).child("live"),
        spec,
        tiny_autoencoder,
    )
    eval_batch = {
        k: v[np.arange(tiny_dataset.n_samples - 64, tiny_dataset.n_samples)]
        for k, v in tiny_dataset.fields.items()
    }
    return trainers, LtfbDriver(
        trainers,
        np.random.default_rng(5),
        LtfbConfig(steps_per_round=steps_per_round, rounds=rounds),
        eval_batch=eval_batch,
        backend=backend,
    )


class _Poisoner:
    """Poisons one trainer's generator after round 0's training.

    Marks the victim dirty so backends with remote replicas (process)
    push the poisoned state to the worker before the next interval.
    """

    def __init__(self, trainers):
        self.trainers = trainers
        self._driver = None

    def handle(self, event):
        if event.type == "round_end" and event.payload["round"] == 0:
            victim = self.trainers[0]
            state = victim.surrogate.get_generator_state()
            victim.surrogate.set_generator_state(
                {k: v * math.nan for k, v in state.items()}
            )
            self._driver.backend.mark_dirty(victim.name)

    def on_run_begin(self, driver):
        self._driver = driver

    def on_run_end(self, driver, history):
        pass


class _WarningCounts:
    """Snapshots ``len(history.health_warnings)`` at every round end."""

    def __init__(self):
        self.per_round = []
        self._history = None

    def handle(self, event):
        if event.type == "round_end":
            self.per_round.append(len(self._history.health_warnings))

    def on_run_begin(self, driver):
        self._history = driver.history

    def on_run_end(self, driver, history):
        pass


def _assert_one_live_nan(history, victim, counts):
    """Exactly one critical ``nan_loss``, for the poisoned trainer, already
    in history when the final round ended (not appended at run end)."""
    nan = [w for w in history.health_warnings if w.kind == "nan_loss"]
    assert [(w.trainer, w.severity) for w in nan] == [(victim, "critical")]
    assert counts.per_round[-1] >= 1


class TestDriverIntegration:
    def test_alerts_land_in_history_during_run(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        """Acceptance: a forced NaN raises one critical warning into
        ``History.health_warnings`` *before* the run ends."""
        trainers, driver = _tiny_driver(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            seed=21, backend=resolve_backend("serial"),
        )
        counts = _WarningCounts()
        history = driver.run(
            callbacks=[_Poisoner(trainers), LiveAggregator(), counts]
        )
        _assert_one_live_nan(history, trainers[0].name, counts)

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_worker_relay_raises_live_alert(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, backend_name
    ):
        """The worker's ``step_end`` events (NaN losses included) replay
        home through the backend's event relay; the driver-side
        aggregator fires the one alert, same as on the serial backend."""
        trainers, driver = _tiny_driver(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            seed=23, backend=resolve_backend(backend_name, max_workers=2),
        )
        counts = _WarningCounts()
        history = driver.run(
            callbacks=[_Poisoner(trainers), LiveAggregator(), counts]
        )
        _assert_one_live_nan(history, trainers[0].name, counts)

    def test_one_alert_reaches_every_consumer(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        """One live ``nan_loss`` in a traced run shows up in every place
        a warning is read: the progress log, the metrics counter, both
        trace-report formats, the Perfetto export, the flight recorder
        (ring + critical auto-dump) and the watch CLI."""
        import io

        from repro.telemetry import (
            MetricsCollector,
            ProgressLogger,
            chrome_trace,
            load_trace,
            render_trace_report,
            trace_summary,
        )
        from repro.telemetry.__main__ import render_watch, watch_snapshot

        trainers, driver = _tiny_driver(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            seed=21, backend=resolve_backend("serial"),
        )
        trace = tmp_path / "trace.jsonl"
        stream = io.StringIO()
        metrics = MetricsCollector()
        recorder = FlightRecorder(out_dir=tmp_path / "flightrec")
        history = driver.run(
            callbacks=[
                _Poisoner(trainers), LiveAggregator(), JsonlTraceWriter(trace),
                ProgressLogger(stream=stream), metrics, recorder,
            ]
        )
        (alert,) = history.health_warnings
        assert alert.kind == "nan_loss"
        line = f"  health[critical] nan_loss: {alert.message}"
        assert line in stream.getvalue().splitlines()
        assert metrics.registry["repro_health_warnings_total"].value == 1
        assert trace_summary(trace)["health"] == [alert.to_payload()]
        assert (
            f"  [critical] nan_loss (round {alert.round_index}): "
            f"{alert.message}"
        ) in render_trace_report(trace).splitlines()
        instants = [
            e for e in chrome_trace(load_trace(trace))["traceEvents"]
            if e.get("ph") == "i"
        ]
        assert [e["name"] for e in instants] == ["health:nan_loss"]
        assert [r["kind"] for r in recorder.rings["health"]] == ["nan_loss"]
        (dump,) = recorder.dumps_written
        assert load_bundle(dump)["reason"] == "critical-nan_loss"
        snap = watch_snapshot(trace)
        assert [a["kind"] for a in snap["alerts"]["recent"]] == ["nan_loss"]
        assert "train/nan_loss" in render_watch(snap)


class TestFlightRecorder:
    def test_rings_are_bounded_per_subsystem(self, tmp_path):
        hub = TelemetryHub()
        rec = FlightRecorder(out_dir=tmp_path, capacity=5)
        hub.subscribe(rec)
        _steps(hub, 20)
        hub.emit("ingest", round=0, admitted=1, evicted=0, stale=0,
                 store_evictions=0, depth=0, cursor=1, universe_version=1,
                 universe_size=1, producer_lag=0, store_occupancy=0.0,
                 paused=False, channel_occupancy=0.0)
        assert len(rec.rings["train"]) == 5
        assert len(rec.rings["ingest"]) == 1
        assert rec.events_seen == 21
        # No trigger fired: nothing on disk.
        assert not rec.dumps_written

    def test_spans_excluded_unless_asked(self, tmp_path):
        hub = TelemetryHub()
        rec = FlightRecorder(out_dir=tmp_path)
        hub.subscribe(rec)
        hub.start_tracing()
        hub.emit("span", name="x", track="main", start_s=0.0, dur_s=0.1)
        assert "span" not in rec.rings
        keeper = FlightRecorder(out_dir=tmp_path, record_spans=True)
        hub.subscribe(keeper)
        hub.emit("span", name="y", track="main", start_s=0.0, dur_s=0.1)
        assert len(keeper.rings["span"]) == 1

    def test_critical_alert_auto_dumps_bounded(self, tmp_path):
        hub = TelemetryHub()
        rec = FlightRecorder(out_dir=tmp_path, max_auto_dumps=2)
        hub.subscribe(rec)
        _steps(hub, 3)
        for i in range(5):
            hub.emit("alert", kind="nan_loss", severity="critical",
                     source="train", round=i, trainer="t0", message="boom",
                     value=None, threshold=None)
        assert len(rec.dumps_written) == 2
        bundle = load_bundle(rec.dumps_written[0])
        assert bundle["reason"] == "critical-nan_loss"
        assert [r["type"] for r in bundle["events"]["train"]] == ["step_end"] * 3
        assert bundle["events"]["health"][0]["kind"] == "nan_loss"

    def test_warning_severity_does_not_dump(self, tmp_path):
        hub = TelemetryHub()
        rec = FlightRecorder(out_dir=tmp_path)
        hub.subscribe(rec)
        hub.emit("alert", kind="stall_regression", severity="warning",
                 source="data", round=1, trainer=None, message="slow")
        assert not rec.dumps_written

    def test_crash_hook_dumps_bundle(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        """A mid-run exception escaping the round loop triggers
        ``on_run_error`` and a crash bundle before the exception unwinds."""
        _, driver = _tiny_driver(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            seed=29, backend=resolve_backend("serial"),
        )

        class Bomb:
            def handle(self, event):
                if event.type == "round_end":
                    raise RuntimeError("injected fault")

            def on_run_begin(self, d):
                pass

            def on_run_end(self, d, h):
                pass

        rec = FlightRecorder(out_dir=tmp_path)
        with pytest.raises(RuntimeError, match="injected fault"):
            driver.run(callbacks=[rec, Bomb()])
        assert len(rec.dumps_written) == 1
        bundle = load_bundle(rec.dumps_written[0])
        assert bundle["reason"] == "crash-RuntimeError"
        assert bundle["error"] == "RuntimeError('injected fault')"
        assert bundle["run"]["driver"] == "LtfbDriver"
        assert bundle["events"]["train"]

    def test_load_bundle_rejects_garbage(self, tmp_path):
        not_bundle = tmp_path / "x.json"
        not_bundle.write_text('{"bundle": "something_else"}')
        with pytest.raises(ValueError, match="not a flight-recorder bundle"):
            load_bundle(not_bundle)
        wrong_version = tmp_path / "y.json"
        wrong_version.write_text(
            '{"bundle": "flight_recorder", "version": 999}'
        )
        with pytest.raises(ValueError, match="unsupported bundle version"):
            load_bundle(wrong_version)

    def test_every_event_type_has_a_subsystem(self):
        from repro.telemetry.events import EVENT_TYPES

        assert set(SUBSYSTEM_OF) == set(EVENT_TYPES)


class TestStatusServer:
    def _fake_server(self):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_serve_requests_total", "requests").inc(7)
        return SimpleNamespace(
            stats=lambda: {"requests": 7, "version": 3},
            metrics=registry,
            batcher=SimpleNamespace(closed=False),
        )

    def test_endpoints(self):
        from repro.serve.status import StatusServer

        fake = self._fake_server()
        hub = TelemetryHub()
        agg = LiveAggregator().attach(hub)
        hub.subscribe(agg)
        _steps(hub, 2)
        with StatusServer(fake, aggregator=agg) as status:
            base = status.url
            with urllib.request.urlopen(f"{base}/status") as resp:
                doc = json.load(resp)
            assert doc["serve"]["requests"] == 7
            assert doc["live"]["trainers"]["t0"]["steps_done"] == 2
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                text = resp.read().decode()
                assert resp.headers["Content-Type"].startswith("text/plain")
            assert "repro_serve_requests_total 7" in text
            with urllib.request.urlopen(f"{base}/healthz") as resp:
                assert resp.read() == b"ok\n"
            fake.batcher.closed = True
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/healthz")
            assert err.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404

    def test_status_without_aggregator_omits_live(self):
        from repro.serve.status import StatusServer

        status = StatusServer(self._fake_server())
        doc = status.status()
        assert "live" not in doc
        status.stop()


class TestAtomicMetrics:
    def test_write_metrics_publishes_atomically(self, tmp_path):
        from repro.telemetry.metrics import MetricsRegistry, write_metrics

        registry = MetricsRegistry()
        registry.counter("repro_test_total", "x").inc(3)
        out = tmp_path / "metrics.json"
        write_metrics(registry, out)
        doc = json.loads(out.read_text())
        assert doc["counters"]["repro_test_total"] == 3
        # No temporary files survive publication.
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        from repro.telemetry.metrics import MetricsRegistry, write_metrics

        registry = MetricsRegistry()
        target = tmp_path / "dir.prom"
        target.mkdir()  # os.replace onto a directory fails
        with pytest.raises(OSError):
            write_metrics(registry, target)
        assert [p.name for p in tmp_path.iterdir()] == ["dir.prom"]

    def test_render_metrics_formats(self):
        from repro.telemetry.metrics import MetricsRegistry, render_metrics

        registry = MetricsRegistry()
        registry.counter("repro_test_total", "x").inc(1)
        assert "repro_test_total 1" in render_metrics(registry, "prometheus")
        assert json.loads(render_metrics(registry, "json"))["counters"]
        with pytest.raises(ValueError):
            render_metrics(registry, "xml")


def _write_demo_trace(path, rounds=3, paused_last=True):
    hub = TelemetryHub()
    writer = JsonlTraceWriter(
        path,
        metadata={"driver": "LtfbDriver", "backend": "serial", "workers": 1,
                  "population": ["t0", "t1"], "rounds": rounds},
    )
    hub.subscribe(writer)
    for r in range(rounds):
        hub.emit("pairing", topology="ring", round=r, pairs=[["t0", "t1"]],
                 bye=[], neighborhoods=[None])
        for t in ("t0", "t1"):
            hub.emit("step_end", trainer=t, steps=2, steps_done=(r + 1) * 2,
                     losses={"loss": 1.0 / (r + 1)}, elapsed_s=0.02,
                     backend="serial", worker=0)
        hub.emit("fetch_stall", trainer="t0", stall_s=0.002, overlap_s=0.001,
                 worker=0)
        hub.emit("exchange", round=r, trainer_a="t0", trainer_b="t1",
                 scope="model", nbytes=1024)
        hub.emit("ingest", round=r, admitted=8, evicted=2, stale=1,
                 store_evictions=0, depth=0, cursor=8 * (r + 1),
                 universe_version=r, universe_size=64 + 8 * r,
                 producer_lag=2, store_occupancy=0.0,
                 paused=paused_last and r == rounds - 1,
                 channel_occupancy=0.2 * (r + 1))
        hub.emit("round_end", round=r, train_s=0.08, tournament_s=0.01,
                 exchange_s=0.005)
    writer.close()


class TestReportSections:
    def test_pairing_and_ingest_sections(self, tmp_path):
        from repro.telemetry.report import render_trace_report, trace_summary

        trace = tmp_path / "trace.jsonl"
        _write_demo_trace(trace)
        text = render_trace_report(trace)
        assert "pairing:" in text
        assert "3 rounds (ring x3): 3 pairings, 1 unique, 0 byes" in text
        assert "partner diversity" in text
        assert "ingest:" in text
        assert "3 polls: admitted 24, evicted 6 (3 stale)" in text
        assert "hit the high watermark" in text
        summary = trace_summary(trace)
        assert summary["pairings"]["unique_pairs"] == 1
        assert summary["pairings"]["partners"] == {"t0": 1, "t1": 1}
        assert summary["ingest"]["polls"] == 3
        assert summary["ingest"]["paused_polls"] == 1
        assert summary["ingest"]["universe_size"] == 80
        json.dumps(summary)
        # Every text section is a rendering of the dict's numbers.
        lines = text.splitlines()
        assert f"header: schema v{summary['header']['version']}, LtfbDriver, " \
            "backend serial x1, 2 trainers" in lines
        assert f"events: {sum(summary['events'].values())}" in lines
        for event_type, n in summary["events"].items():
            assert f"  {event_type}: {n}" in lines
        phases = summary["phases"]
        for phase in ("train", "tournament", "exchange", "eval"):
            assert f"  {phase}: {phases[phase]:.3f}s" in lines
        assert (
            f"  total: {phases['total']:.3f}s over {phases['rounds']} rounds"
        ) in lines
        counters = summary["counters"]
        assert f"  steps: {counters['steps']}" in lines
        assert (
            f"  exchanges: {counters['exchanges']} "
            f"({counters['exchange_bytes']} bytes)"
        ) in lines
        ingest = summary["ingest"]
        assert (
            f"  producer lag max {ingest['max_producer_lag']}; channel "
            f"occupancy mean {ingest['mean_channel_occupancy']:.0%} peak "
            f"{ingest['peak_channel_occupancy']:.0%}; 1 poll hit the high "
            f"watermark"
        ) in lines
        step = summary["percentiles"]["repro_step_time_seconds"]
        assert (
            f"  step time: n={step['count']} mean={step['mean']:.4g}s "
            f"p50={step['p50']:.4g}s p95={step['p95']:.4g}s "
            f"p99={step['p99']:.4g}s"
        ) in lines

    def test_sections_absent_without_events(self, tmp_path):
        from repro.telemetry.report import render_trace_report, trace_summary

        trace = tmp_path / "trace.jsonl"
        hub = TelemetryHub()
        writer = JsonlTraceWriter(trace)
        hub.subscribe(writer)
        _steps(hub, 2)
        hub.emit("round_end", round=0, train_s=0.02)
        writer.close()
        assert LiveAggregator().snapshot()["pairings"] is None
        text = render_trace_report(trace)
        assert "pairing:" not in text
        assert "ingest:" not in text
        summary = trace_summary(trace)
        assert summary["pairings"] is None
        assert summary["ingest"] is None


class TestWatchCli:
    def test_snapshot_and_render(self, tmp_path):
        from repro.telemetry.__main__ import render_watch, watch_snapshot

        trace = tmp_path / "trace.jsonl"
        _write_demo_trace(trace)
        snap = watch_snapshot(trace)
        assert snap["round"] == 2
        assert snap["header"]["run"]["driver"] == "LtfbDriver"
        text = render_watch(snap, path=trace)
        assert "round: 3/3" in text
        assert "t0:" in text and "t1:" in text
        assert "pairing[ring]" in text
        assert "ingest: universe 80" in text
        assert "PAUSED" in text

    def test_tail_tolerates_partial_line(self, tmp_path):
        from repro.telemetry.report import TraceReader

        trace = tmp_path / "trace.jsonl"
        _write_demo_trace(trace, rounds=1)
        tail = TraceReader(trace)
        complete = tail.read()
        assert complete
        with open(trace, "a", encoding="utf-8") as fh:
            fh.write('{"type": "round_end", "time_s": 9.0, "seq')
        assert tail.read() == []  # half-written line is left for later
        with open(trace, "a", encoding="utf-8") as fh:
            fh.write('uence": 99, "round": 1, "train_s": 0.1}\n')
        more = tail.read()
        assert [e.type for e in more] == ["round_end"]
        assert more[0].payload["round"] == 1

    def test_main_once_and_json(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        trace = tmp_path / "trace.jsonl"
        _write_demo_trace(trace)
        assert main(["watch", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "== live status" in out
        assert main(["watch", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["round"] == 2

    def test_missing_trace_renders_empty(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        assert main(["watch", str(tmp_path / "nope.jsonl")]) == 0
        assert "alerts: none" in capsys.readouterr().out

    def test_unsupported_schema_version_refused(self, tmp_path, capsys):
        # A version-2 trace still carried ``health`` events: rendering it
        # as "alerts: none" would hide its nan_loss.
        from repro.telemetry.__main__ import main

        trace = tmp_path / "v2.jsonl"
        trace.write_text(
            '{"type": "trace_header", "version": 2}\n'
            '{"type": "health", "time_s": 0.0, "sequence": 0, '
            '"kind": "nan_loss", "message": "loss is nan"}\n'
            "not json\n"
        )
        for argv in (["watch", str(trace)], ["watch", str(trace), "--json"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"watch: {trace}:1: ")
            assert "unsupported trace schema version 2 (supported: [3])" in (
                captured.err
            )

    def test_malformed_complete_line_refused(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        trace = tmp_path / "trace.jsonl"
        _write_demo_trace(trace, rounds=1)
        lines = len(trace.read_text().splitlines())
        with open(trace, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        assert main(["watch", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"watch: {trace}:{lines + 1}: not valid JSON"
        )
        # --follow refuses it on the first refresh too.
        assert main(["watch", str(trace), "--follow",
                     "--max-refreshes", "1", "--interval", "0"]) == 1
        assert f"{trace}:{lines + 1}: not valid JSON" in capsys.readouterr().err


class TestJointObservabilityStreaming:
    def test_health_resources_and_live_under_process_backend(self, tmp_path):
        """LiveAggregator + QualityProbe + ResourceSampler together on a
        clean streamed run under the process backend: the run ends with
        zero warnings, the sampler sees driver and worker sources, ingest
        polls happen, and the live snapshot reflects all of it."""
        from repro.eval import QualityProbe
        from repro.experiments.streaming import StreamingSpec, build_streaming_run
        from repro.telemetry import ResourceSampler

        setup = build_streaming_run(
            StreamingSpec(seed=7, k=2, n_design=256, prime_samples=64)
        )
        agg = LiveAggregator()
        samples = []

        class Resources:
            def handle(self, event):
                if event.type == "resource_sample":
                    samples.append(event.payload.get("source"))

            def on_run_begin(self, d):
                pass

            def on_run_end(self, d, h):
                pass

        driver = LtfbDriver(
            setup.trainers,
            setup.rngs.generator("pairing"),
            LtfbConfig(steps_per_round=2, rounds=2),
            eval_batch=setup.eval_batch,
            backend=resolve_backend("process", max_workers=2),
            source=setup.source,
        )
        history = driver.run(
            callbacks=[agg, QualityProbe(), ResourceSampler(), Resources()]
        )
        assert history.rounds_completed == 2
        assert history.healthy, [w.render() for w in history.health_warnings]
        assert "driver" in samples
        assert any(s and s.startswith("worker") for s in samples)
        snap = agg.snapshot()
        assert snap["ingest"] is not None
        assert snap["ingest"]["universe_size"] > 64
        assert snap["windows"]["ingest_admitted"]["count"] >= 1
        assert snap["quality"] is not None
        assert snap["alerts"]["count"] == 0
