"""Tests for the pluggable execution backends (:mod:`repro.exec`).

The headline invariant: a population run produces a bit-identical
:class:`~repro.core.driver.History` no matter which backend executes the
train phase — trainers are independent within a round and all randomness
is scoped per trainer, so execution placement must not be observable in
the results.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver, build_population
from repro.exec import (
    BACKEND_NAMES,
    EventRecorder,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.telemetry import Callback, TelemetryHub
from repro.utils.rng import RngFactory


def _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=4):
    spec = dataclasses.replace(tiny_spec, k=k)
    return build_population(
        tiny_dataset,
        np.arange(tiny_dataset.n_samples - 64),
        RngFactory(77).child("exec"),
        spec,
        tiny_autoencoder,
    )


def _worker_train_s(metrics) -> dict[str, float]:
    """A collector's per-worker train seconds, keyed ``backend/workerN``."""
    out = {}
    for series in metrics.registry.series("repro_worker_train_seconds_total"):
        labels = dict(series.labels)
        out[f"{labels['backend']}/worker{labels['worker']}"] = series.value
    return out


def _run_ltfb(
    tiny_dataset, tiny_spec, tiny_autoencoder, backend,
    topology="random_pairwise", callbacks=(),
):
    trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
    val_ids = np.arange(tiny_dataset.n_samples - 64, tiny_dataset.n_samples)
    driver = LtfbDriver(
        trainers,
        np.random.default_rng(7),
        LtfbConfig(steps_per_round=3, rounds=3),
        eval_batch={k: v[val_ids] for k, v in tiny_dataset.fields.items()},
        backend=backend,
        topology=topology,
    )
    history = driver.run(callbacks=list(callbacks))
    final_weights = {
        t.name: {k: v.copy() for k, v in t.generator_state().items()}
        for t in driver.trainers
    }
    return history, final_weights, driver


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)
        assert tuple(BACKEND_NAMES) == ("serial", "thread", "process")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("gpu")

    def test_instance_passthrough(self):
        backend = ThreadBackend(max_workers=2)
        assert resolve_backend(backend) is backend

    def test_instance_rejects_max_workers_override(self):
        with pytest.raises(ValueError, match="max_workers"):
            resolve_backend(ThreadBackend(), max_workers=2)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestEventRecorder:
    def test_rejects_unknown_event_type(self):
        with pytest.raises(ValueError, match="unknown event type"):
            EventRecorder().emit("nope", x=1)

    def test_replay_preserves_order_and_clears(self):
        recorder = EventRecorder()
        recorder.emit("step_end", trainer="a", steps=1)
        recorder.emit("round_end", round=0, train_s=0.1)
        seen = []

        class Collect(Callback):
            def on_event(self, event):
                seen.append((event.type, dict(event.payload)))

        hub = TelemetryHub()
        hub.subscribe(Collect())
        recorder.replay_into(hub)
        assert [t for t, _ in seen] == ["step_end", "round_end"]
        assert seen[0][1]["trainer"] == "a"
        assert recorder.events == []


class TestLifecycle:
    def test_double_bind_raises(self, tiny_dataset, tiny_spec, tiny_autoencoder):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        backend = SerialBackend()
        backend.bind(trainers, TelemetryHub())
        with pytest.raises(RuntimeError, match="already bound"):
            backend.bind(trainers, TelemetryHub())
        backend.release()
        backend.release()  # idempotent
        backend.bind(trainers, TelemetryHub())  # reusable after release
        backend.release()

    def test_failed_bind_releases(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        class FailingBind(ThreadBackend):
            def _on_bind(self):
                super()._on_bind()
                raise RuntimeError("bind hook failed")

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        depths = [t.prefetch_depth for t in trainers]
        assert 3 not in depths
        backend = FailingBind(prefetch_depth=3)
        for _ in range(2):  # a failed bind leaves the backend bindable
            with pytest.raises(RuntimeError, match="bind hook failed"):
                backend.bind(trainers, TelemetryHub())
            assert not backend._bound
            assert backend._pool is None
            assert [t.prefetch_depth for t in trainers] == depths

    def test_failed_process_bind_stops_started_workers(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        import multiprocessing

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        trainers[1].unpicklable = lambda: None  # worker 1's payload fails
        backend = ProcessBackend(max_workers=2)
        with pytest.raises(Exception, match="pickle"):
            backend.bind(trainers, TelemetryHub())
        assert not backend._bound
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-exec")
        ]

    def test_worker_assignment_is_round_robin(self):
        assert [ExecutionBackend.worker_of(i, 3) for i in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]
        assert ExecutionBackend.worker_of(5, 0) == 0  # degenerate guard

    def test_context_manager_releases(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        backend = ThreadBackend(max_workers=2)
        with backend:
            backend.bind(trainers, TelemetryHub())
        assert not backend._bound

    def test_thread_backend_shares_autoencoder(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        backend = ThreadBackend(max_workers=2)
        backend.bind(trainers, TelemetryHub())
        # Bound, and after a round: every trainer trains against the one
        # shared frozen autoencoder -- no private replicas.
        assert all(t.surrogate.autoencoder is tiny_autoencoder for t in trainers)
        backend.train_round(0, 2)
        assert all(t.surrogate.autoencoder is tiny_autoencoder for t in trainers)
        backend.release()
        assert all(t.surrogate.autoencoder is tiny_autoencoder for t in trainers)


@pytest.fixture(scope="module", params=["random_pairwise", "cellular_grid"])
def serial_run(request, tiny_dataset, tiny_spec, tiny_autoencoder):
    """One serial reference run per synchronous topology: the determinism
    contract must hold for every topology whose plan depends only on the
    pairing RNG and round index, not just the paper's random pairing."""
    return request.param, _run_ltfb(
        tiny_dataset, tiny_spec, tiny_autoencoder, "serial",
        topology=request.param,
    )


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_history_bit_identical_to_serial(
        self, backend_name, serial_run, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        topology, (ref_history, ref_weights, _) = serial_run
        backend = resolve_backend(backend_name, max_workers=2)
        history, weights, _ = _run_ltfb(
            tiny_dataset, tiny_spec, tiny_autoencoder, backend,
            topology=topology,
        )
        assert history.rounds_completed == ref_history.rounds_completed
        assert history.train_losses == ref_history.train_losses
        assert history.eval_series == ref_history.eval_series
        assert history.tournaments == ref_history.tournaments
        assert history.pairings == ref_history.pairings
        assert history.byes == ref_history.byes
        assert history.exchange_bytes == ref_history.exchange_bytes
        for name, ref in ref_weights.items():
            for key, arr in ref.items():
                np.testing.assert_array_equal(arr, weights[name][key])

    def test_serial_reference_is_itself_deterministic(
        self, serial_run, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        topology, (ref_history, _, _) = serial_run
        again, _, _ = _run_ltfb(
            tiny_dataset, tiny_spec, tiny_autoencoder, "serial",
            topology=topology,
        )
        assert again.tournaments == ref_history.tournaments

    def test_cli_backend_full_run(
        self, cli_backend, cli_topology, tiny_dataset, tiny_spec,
        tiny_autoencoder,
    ):
        """The --backend/--topology suite leg: a full LTFB run under the
        CLI-chosen backend and topology must finish and advance every
        trainer."""
        history, _, driver = _run_ltfb(
            tiny_dataset, tiny_spec, tiny_autoencoder, cli_backend,
            topology=cli_topology,
        )
        assert history.rounds_completed == 3
        assert all(t.steps_done == 9 for t in driver.trainers)


class TestRoundOrdering:
    """The telemetry order a round's replay guarantees on every backend: a
    tournament never precedes either partner's training, a barrier round
    relays ``step_end`` in population order, and the serial barrier-free
    round trains the whole population before its first exchange."""

    @pytest.mark.parametrize("topology", ["random_pairwise", "async_pairwise"])
    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_tournaments_follow_both_partners_training(
        self, backend_name, topology, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        events = []

        class Collect(Callback):
            def on_event(self, event):
                events.append((event.type, dict(event.payload)))

        _run_ltfb(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            resolve_backend(backend_name, max_workers=2),
            topology=topology, callbacks=[Collect()],
        )
        rounds, current = [], []
        for event in events:
            if event[0] == "round_end":
                rounds.append(current)
                current = []
            else:
                current.append(event)
        assert len(rounds) == 3
        population = [f"trainer{i:02d}" for i in range(4)]
        for round_events in rounds:
            trained_at = {
                payload["trainer"]: i
                for i, (etype, payload) in enumerate(round_events)
                if etype == "step_end"
            }
            assert sorted(trained_at) == population
            tournaments = [
                (i, payload)
                for i, (etype, payload) in enumerate(round_events)
                if etype == "tournament"
            ]
            assert len(tournaments) == 4
            for i, payload in tournaments:
                assert trained_at[payload["trainer"]] < i
                assert trained_at[payload["partner"]] < i
            if topology == "random_pairwise":
                assert sorted(trained_at, key=trained_at.get) == population
            if backend_name == "serial" and topology == "async_pairwise":
                first_exchange = next(
                    i for i, (etype, _) in enumerate(round_events)
                    if etype == "exchange"
                )
                assert max(trained_at.values()) < first_exchange


class TestProcessBackend:
    def test_mid_epoch_bind_matches_serial(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        """Trainers with an in-flight data pipeline ship to workers cleanly:
        pickling folds the pipeline into its plan cursor, and the replica
        resumes the same epoch bit-identically to a serial continuation."""
        ref = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        ref_losses = {}
        for t in ref:
            t.train_steps(1)
            ref_losses[t.name] = t.train_steps(3)
        live = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        for t in live:
            t.train_steps(1)  # leaves a mid-epoch data pipeline
        backend = ProcessBackend(max_workers=2)
        backend.bind(live, TelemetryHub())
        try:
            losses = backend.train_round(0, 3)
        finally:
            backend.release()
        assert losses == ref_losses
        for tr, tl in zip(ref, live):
            for key, arr in tr.generator_state().items():
                np.testing.assert_array_equal(arr, tl.generator_state()[key])

    def test_mark_dirty_unknown_trainer(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        backend = ProcessBackend(max_workers=2)
        backend.bind(trainers, TelemetryHub())
        try:
            with pytest.raises(ValueError, match="unknown trainer"):
                backend.mark_dirty("nobody")
        finally:
            backend.release()

    def test_dead_worker_raises(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        backend = ProcessBackend(max_workers=2)
        backend.bind(trainers, TelemetryHub())
        try:
            backend._procs[0].terminate()
            backend._procs[0].join()
            with pytest.raises(RuntimeError, match="died unexpectedly"):
                backend.train_round(0, 1)
        finally:
            backend.release()

    def test_max_workers_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(max_workers=0)


class TestTelemetryAttribution:
    def _step_events(self, tiny_dataset, tiny_spec, tiny_autoencoder, backend):
        events = []

        class Steps(Callback):
            def on_step_end(self, event):
                events.append(dict(event.payload))

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(7),
            LtfbConfig(steps_per_round=2, rounds=1),
            backend=backend,
        )
        driver.run(callbacks=[Steps()])
        return events

    def test_serial_attribution(self, tiny_dataset, tiny_spec, tiny_autoencoder):
        events = self._step_events(
            tiny_dataset, tiny_spec, tiny_autoencoder, "serial"
        )
        assert [e["trainer"] for e in events] == [
            "trainer00", "trainer01", "trainer02", "trainer03",
        ]
        assert all(e["backend"] == "serial" and e["worker"] == 0 for e in events)

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_parallel_attribution_and_population_order(
        self, backend_name, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        events = self._step_events(
            tiny_dataset, tiny_spec, tiny_autoencoder,
            resolve_backend(backend_name, max_workers=2),
        )
        # Relayed in population order despite concurrent execution.
        assert [e["trainer"] for e in events] == [
            "trainer00", "trainer01", "trainer02", "trainer03",
        ]
        assert all(e["backend"] == backend_name for e in events)
        assert [e["worker"] for e in events] == [0, 1, 0, 1]

    def test_counter_aggregator_per_worker_seconds(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        from repro.telemetry import JsonlTraceWriter, MetricsCollector, trace_summary

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        metrics = MetricsCollector()
        trace = tmp_path / "trace.jsonl"
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(7),
            LtfbConfig(steps_per_round=2, rounds=1),
            backend=ThreadBackend(max_workers=2),
        )
        driver.run(callbacks=[metrics, JsonlTraceWriter(trace)])
        worker_train_s = _worker_train_s(metrics)
        assert set(worker_train_s) == {"thread/worker0", "thread/worker1"}
        assert all(s > 0 for s in worker_train_s.values())
        summary = trace_summary(trace)["counters"]
        assert "train_s[thread/worker0]" in summary

    def test_counter_aggregator_per_worker_seconds_process(
        self, tiny_dataset, tiny_spec, tiny_autoencoder, tmp_path
    ):
        # Worker attribution must survive the multiprocessing relay: step
        # events recorded in worker processes still carry backend/worker
        # fields when replayed on the driver's hub.
        from repro.telemetry import JsonlTraceWriter, MetricsCollector, trace_summary

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        metrics = MetricsCollector()
        trace = tmp_path / "trace.jsonl"
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(7),
            LtfbConfig(steps_per_round=2, rounds=1),
            backend=ProcessBackend(max_workers=2),
        )
        driver.run(callbacks=[metrics, JsonlTraceWriter(trace)])
        worker_train_s = _worker_train_s(metrics)
        assert set(worker_train_s) == {"process/worker0", "process/worker1"}
        assert all(s > 0 for s in worker_train_s.values())
        summary = trace_summary(trace)["counters"]
        assert "train_s[process/worker0]" in summary

    def test_counter_aggregator_skips_unattributed_steps(self):
        from repro.telemetry import MetricsCollector

        metrics = MetricsCollector()
        hub = TelemetryHub()
        hub.subscribe(metrics)
        # A pre-backend trace line: no backend/worker fields.
        hub.emit("step_end", trainer="t", steps=3, elapsed_s=0.5)
        assert metrics.steps.value == 3
        assert _worker_train_s(metrics) == {}

    def test_trace_report_renders_per_worker_section(
        self, tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        from repro.telemetry import JsonlTraceWriter
        from repro.telemetry.report import render_trace_report

        trace = tmp_path / "trace.jsonl"
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(7),
            LtfbConfig(steps_per_round=2, rounds=1),
            backend=ThreadBackend(max_workers=2),
        )
        driver.run(callbacks=[JsonlTraceWriter(trace)])
        text = render_trace_report(trace)
        assert "per-worker train wall clock" in text
        assert "thread/worker0" in text and "thread/worker1" in text
