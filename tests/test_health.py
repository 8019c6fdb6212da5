"""Tests for the run-health rules of :class:`~repro.telemetry.
LiveAggregator` that are driven by training events: NaN loss, win-rate
collapse and stall regression with synthetic events, alert dedupe and
emission, ProgressLogger's in-line health lines, History integration
through a real (NaN-forced) run on every backend, and the experiments
report plumbing.  (Quality collapse lives in ``test_eval.py``, the
per-neighborhood win-rate check in ``test_topology.py``, the ingest and
serve rules in ``test_live.py``.)
"""

from __future__ import annotations

import dataclasses
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver, build_population
from repro.exec import resolve_backend
from repro.telemetry import (
    Alert,
    LiveAggregator,
    ProgressLogger,
    TelemetryHub,
)
from repro.telemetry.events import ALERT
from repro.utils.rng import RngFactory


def _monitor(hub: TelemetryHub, **kwargs) -> LiveAggregator:
    """A LiveAggregator subscribed to ``hub`` with its emit path live."""
    monitor = LiveAggregator(**kwargs).attach(hub)
    hub.subscribe(monitor)
    return monitor


class _Recorder:
    """Minimal hub subscriber collecting raw events."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)

    def on_run_begin(self, driver):
        pass

    def on_run_end(self, driver, history):
        pass


class TestDetectors:
    def test_nan_loss_is_critical_and_deduped(self):
        hub = TelemetryHub()
        monitor = _monitor(hub)
        for _ in range(3):
            hub.emit(
                "step_end", trainer="t0", steps=1, elapsed_s=0.1,
                losses={"gan": math.nan},
            )
        assert len(monitor.alerts) == 1
        w = monitor.alerts[0]
        assert w.kind == "nan_loss"
        assert w.severity == "critical"
        assert w.trainer == "t0"
        # A different trainer is a separate dedupe key.
        hub.emit(
            "step_end", trainer="t1", steps=1, elapsed_s=0.1,
            losses={"gan": math.inf},
        )
        assert {w.trainer for w in monitor.alerts} == {"t0", "t1"}

    def test_winrate_collapse_over_window(self):
        hub = TelemetryHub()
        monitor = _monitor(hub)
        for r in range(3):
            for _ in range(3):
                hub.emit(
                    "tournament", round=r, trainer="loser", partner="t7",
                    own_score=0.0, partner_score=1.0, adopted=True,
                )
            hub.emit("round_end", round=r, train_s=1.0)
        assert [w.kind for w in monitor.alerts] == ["winrate_collapse"]
        assert monitor.alerts[0].trainer == "t7"

    def test_no_collapse_below_min_adoptions(self):
        hub = TelemetryHub()
        monitor = _monitor(hub)
        for r in range(2):
            hub.emit(
                "tournament", round=r, trainer="a", partner="b",
                own_score=0.0, partner_score=1.0, adopted=True,
            )
            hub.emit("round_end", round=r, train_s=1.0)
        assert monitor.alerts == []

    def test_stall_regression_after_warmup(self):
        hub = TelemetryHub()
        monitor = _monitor(hub)
        # Round 0 is warmup: the first-epoch ingest stall is expected.
        hub.emit("fetch_stall", stall_s=0.9, materialize_s=0.9)
        hub.emit("round_end", round=0, train_s=1.0)
        assert monitor.alerts == []
        hub.emit("fetch_stall", stall_s=0.9, materialize_s=0.9)
        hub.emit("round_end", round=1, train_s=1.0)
        assert [w.kind for w in monitor.alerts] == ["stall_regression"]
        # Stall accounting resets per round: a quiet round 2 stays quiet
        # (and the kind is in cooldown anyway).
        hub.emit("round_end", round=2, train_s=1.0)
        assert len(monitor.alerts) == 1

    def test_alerts_emitted_as_alert_events(self):
        hub = TelemetryHub()
        recorder = _Recorder()
        hub.subscribe(recorder)
        monitor = _monitor(hub)
        hub.emit(
            "step_end", trainer="t0", steps=1, elapsed_s=0.1,
            losses={"gan": math.nan},
        )
        alerts = [e for e in recorder.events if e.type == ALERT]
        assert len(alerts) == 1
        assert alerts[0].payload["kind"] == "nan_loss"
        assert alerts[0].payload["severity"] == "critical"
        assert alerts[0].payload["source"] == "train"
        assert Alert.from_payload(alerts[0].payload) == monitor.alerts[0]
        assert monitor.alerts[0].render() == (
            "[critical] nan_loss: " + alerts[0].payload["message"]
        )


class TestProgressLoggerHealth:
    def _run(self, tiny_dataset, tiny_spec, tiny_autoencoder, callbacks):
        spec = dataclasses.replace(tiny_spec, k=2)
        trainers = build_population(
            tiny_dataset,
            np.arange(tiny_dataset.n_samples - 64),
            RngFactory(11).child("health"),
            spec,
            tiny_autoencoder,
        )
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(3),
            LtfbConfig(steps_per_round=2, rounds=2),
        )
        return driver.run(callbacks=callbacks)

    def test_health_lines_print_under_their_round(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        stream = io.StringIO()
        # stall_fraction_threshold=-1 flags every post-warmup round, so a
        # healthy tiny run still produces a deterministic warning.
        monitor = LiveAggregator(stall_fraction_threshold=-1.0)
        self._run(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            [monitor, ProgressLogger(stream=stream)],
        )
        lines = stream.getvalue().splitlines()
        round_lines = [
            i for i, line in enumerate(lines) if line.startswith("[round")
        ]
        assert len(round_lines) == 2
        health_lines = [s for s in lines if s.startswith("  health[")]
        assert health_lines == [s for s in lines if "stall_regression" in s]
        assert len(health_lines) == 1
        # The warning surfaced in round 1 and prints under that round line.
        assert lines.index(health_lines[0]) > round_lines[1]

    def test_pending_health_flushes_at_run_end(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        stream = io.StringIO()
        # Logger subscribed *before* the aggregator: the final round's warning
        # arrives after the logger already printed that round's line, so it
        # can only appear via the on_run_end flush.
        self._run(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            [
                ProgressLogger(stream=stream),
                LiveAggregator(stall_fraction_threshold=-1.0),
            ],
        )
        lines = stream.getvalue().splitlines()
        assert lines[-1].startswith("  health[warning] stall_regression:")


class _Saboteur:
    """Poisons one generator after round 0's training (marking it dirty so
    backends with remote replicas push the poisoned state to the worker)
    and floods round 1 with synthetic fetch stalls."""

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
            self._driver.telemetry.emit(
                "fetch_stall", trainer=victim.name, stall_s=60.0,
                materialize_s=60.0,
            )

    def on_run_begin(self, driver):
        self._driver = driver

    def on_run_end(self, driver, history):
        pass


class TestHistoryIntegration:
    def _sabotaged_run(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, backend_name
    ):
        from repro.experiments.common import observability_callbacks

        spec = dataclasses.replace(tiny_spec, k=2)
        trainers = build_population(
            tiny_dataset,
            np.arange(tiny_dataset.n_samples - 64),
            RngFactory(13).child("nan"),
            spec,
            tiny_autoencoder,
        )
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(3),
            LtfbConfig(steps_per_round=2, rounds=2),
            backend=resolve_backend(backend_name, max_workers=2),
        )
        # The saboteur runs after the health callback so its stall lands
        # in round 1's accounting, not in the round 0 that just closed.
        history = driver.run(
            callbacks=[
                *observability_callbacks("t", monitor_health=True),
                _Saboteur(trainers),
            ]
        )
        return trainers, history

    def test_nan_loss_lands_in_history(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        """Acceptance: force a NaN loss mid-run; the health callback must
        raise a critical warning into ``History.health_warnings``."""
        trainers, history = self._sabotaged_run(
            tiny_dataset, tiny_spec, tiny_autoencoder, "serial"
        )
        assert not history.healthy
        critical = [w for w in history.health_warnings if w.kind == "nan_loss"]
        assert critical
        assert all(w.severity == "critical" for w in critical)
        assert any(w.trainer == trainers[0].name for w in critical)

    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_nan_and_stall_yield_one_alert_each(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, backend_name
    ):
        """Acceptance: a NaN trainer plus one stalled round put exactly
        one ``nan_loss`` (for the poisoned trainer) and one
        ``stall_regression`` (for the stalled round) into
        ``History.health_warnings`` — identically on every backend, with
        the callback set the experiments CLI attaches."""
        trainers, history = self._sabotaged_run(
            tiny_dataset, tiny_spec, tiny_autoencoder, backend_name
        )
        assert [
            (w.kind, w.severity, w.trainer, w.round_index)
            for w in history.health_warnings
        ] == [
            ("nan_loss", "critical", trainers[0].name, 0),
            ("stall_regression", "warning", None, 1),
        ]

    def test_clean_run_is_healthy(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        spec = dataclasses.replace(tiny_spec, k=2)
        trainers = build_population(
            tiny_dataset,
            np.arange(tiny_dataset.n_samples - 64),
            RngFactory(17).child("clean"),
            spec,
            tiny_autoencoder,
        )
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(3),
            LtfbConfig(steps_per_round=2, rounds=2),
        )
        history = driver.run(callbacks=[LiveAggregator()])
        assert history.healthy
        assert history.health_warnings == []

    def test_history_without_monitor_is_trivially_healthy(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        spec = dataclasses.replace(tiny_spec, k=2)
        trainers = build_population(
            tiny_dataset,
            np.arange(tiny_dataset.n_samples - 64),
            RngFactory(19).child("plain"),
            spec,
            tiny_autoencoder,
        )
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(3),
            LtfbConfig(steps_per_round=1, rounds=1),
        )
        history = driver.run()
        assert history.healthy


class TestExperimentsPlumbing:
    def test_note_health_appends_report_notes(self):
        from repro.experiments.common import ExperimentReport, note_health

        report = ExperimentReport(
            experiment="x", description="d", columns=("a",)
        )
        history = SimpleNamespace(
            health_warnings=[
                Alert(
                    kind="nan_loss", round_index=1, trainer="t0",
                    message="boom", severity="critical",
                )
            ]
        )
        note_health(report, history)
        assert report.notes == ["health: [critical] nan_loss: boom"]
        # Histories without the attribute (older pickles) are a no-op.
        note_health(report, SimpleNamespace())
        assert len(report.notes) == 1

    def test_observability_callbacks_assembly(self, tmp_path):
        from repro.experiments.common import observability_callbacks
        from repro.telemetry import JsonlTraceWriter, MetricsCollector

        metrics = MetricsCollector()
        files: list = []
        callbacks = observability_callbacks(
            "fig12/k4",
            trace_out=tmp_path / "t.jsonl",
            metrics=metrics,
            monitor_health=True,
            trace_files=files,
        )
        kinds = [type(c).__name__ for c in callbacks]
        assert kinds == [
            "JsonlTraceWriter",
            "MetricsCollector",
            "LiveAggregator",
            "ResourceSampler",
        ]
        assert callbacks[1] is metrics
        writer = callbacks[0]
        assert isinstance(writer, JsonlTraceWriter)
        assert files == [tmp_path / "t-fig12-k4.jsonl"]
        # Resource sampling is skippable; with nothing to observe the
        # assembly stays empty either way.
        kinds = [
            type(c).__name__
            for c in observability_callbacks(
                "tag", metrics=metrics, sample_resources=False
            )
        ]
        assert "ResourceSampler" not in kinds

    def test_observability_callbacks_default_empty(self):
        from repro.experiments.common import observability_callbacks

        assert observability_callbacks("tag", monitor_health=False) == []


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
