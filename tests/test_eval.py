"""Tests for the quality-observability stack (:mod:`repro.eval`):
streaming divergence estimators, the reservoir, the tournament judge
seam (including loss-judge bit-identity with the pre-seam tournament
path), the QualityProbe callback, the checkpoint eval-summary plumbing,
and the quality_collapse rule of LiveAggregator.
"""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointStore
from repro.core.ensemble import build_population
from repro.core.ltfb import LtfbConfig, LtfbDriver
from repro.eval import (
    JUDGE_NAMES,
    METRIC_NAMES,
    DivergenceJudge,
    Judge,
    LossJudge,
    QualityProbe,
    Reservoir,
    fixed_bin_edges,
    histogram_probs,
    js_divergence,
    kl_divergence,
    resolve_judge,
    scalar_divergences,
    summary_value,
)
from repro.eval.divergence import hellinger_distance, prepare_reference
from repro.telemetry.events import EVAL, TelemetryEvent, TelemetryHub
from repro.telemetry.live import LiveAggregator
from repro.utils.rng import RngFactory


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


# -- estimators ---------------------------------------------------------------


def unhoisted_divergences(reference, model, bins=32, span=4.0, eps=1e-6):
    """``scalar_divergences`` as it was before the reference side was
    hoisted into ``prepare_reference``: everything recomputed per call.
    Returns the five exported metrics."""
    ref = np.asarray(reference, dtype=np.float64)
    out = np.asarray(model, dtype=np.float64)
    mu = ref.mean(axis=0)
    sigma = ref.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    ref_z = (ref - mu) / sigma
    out_z = (out - mu) / sigma
    edges = fixed_bin_edges(bins, span)
    kl_dims, js_dims, hel_dims = [], [], []
    for dim in range(ref.shape[1]):
        p = histogram_probs(ref_z[:, dim], edges, eps)
        q = histogram_probs(out_z[:, dim], edges, eps)
        kl_dims.append(kl_divergence(p, q))
        js_dims.append(js_divergence(p, q))
        hel_dims.append(hellinger_distance(p, q))
    return {
        "kl": float(np.mean(kl_dims)),
        "js": float(np.mean(js_dims)),
        "hellinger": float(np.mean(hel_dims)),
        "mean_delta": float(np.mean(np.abs(out_z.mean(axis=0)))),
        "std_delta": float(np.mean(np.abs(out_z.std(axis=0) - 1.0))),
    }



class TestDivergenceEstimators:
    def test_identical_distributions_are_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(512, 3))
        result = scalar_divergences(x, x.copy())
        assert result.kl == pytest.approx(0.0, abs=1e-9)
        assert result.js == pytest.approx(0.0, abs=1e-9)
        assert result.hellinger == pytest.approx(0.0, abs=1e-9)
        assert result.mean_delta == pytest.approx(0.0, abs=1e-9)
        assert result.std_delta == pytest.approx(0.0, abs=1e-9)

    def test_shifted_distribution_scores_positive(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=(1024, 2))
        shifted = ref + 2.0
        result = scalar_divergences(ref, shifted)
        assert result.kl > 0.5
        assert result.js > 0.1
        assert 0.0 < result.hellinger <= 1.0
        assert result.mean_delta == pytest.approx(2.0, rel=0.15)

    def test_js_bounded_and_symmetric(self):
        edges = fixed_bin_edges()
        rng = np.random.default_rng(2)
        p = histogram_probs(rng.normal(size=400), edges)
        q = histogram_probs(rng.normal(loc=3.0, size=400), edges)
        assert 0.0 <= js_divergence(p, q) <= math.log(2.0) + 1e-9
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))

    def test_kl_asymmetric_nonnegative(self):
        edges = fixed_bin_edges()
        rng = np.random.default_rng(3)
        p = histogram_probs(rng.normal(size=400), edges)
        q = histogram_probs(rng.normal(scale=2.0, size=400), edges)
        assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_in_samples(self):
        rng = np.random.default_rng(4)
        ref, out = rng.normal(size=(300, 2)), rng.normal(size=(200, 2))
        a = scalar_divergences(ref, out)
        b = scalar_divergences(ref.copy(), out.copy())
        assert a.as_dict() == b.as_dict()

    def test_result_value_accessor(self):
        rng = np.random.default_rng(5)
        result = scalar_divergences(
            rng.normal(size=(64, 1)), rng.normal(size=(64, 1))
        )
        for metric in METRIC_NAMES + ("mean_delta", "std_delta"):
            assert math.isfinite(result.value(metric))
        with pytest.raises(ValueError):
            result.value("wasserstein")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            scalar_divergences(np.zeros((0, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            scalar_divergences(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_prepared_reference_is_bit_equal_to_the_unhoisted_estimator(self):
        rng = np.random.default_rng(6)
        ref = rng.normal(size=(512, 15)).astype(np.float32)
        # Dimension 0 of the reference is +-1 in equal parts: mean 0 and
        # std 1 exactly, so model values land *on* the shared edges.
        ref[:, 0] = np.tile([-1.0, 1.0], 256)
        on_edges = np.repeat(fixed_bin_edges()[None, :], 15, axis=0).T
        models = [
            rng.normal(size=(512, 15)).astype(np.float32),  # in span
            (rng.normal(size=(300, 15)) * 9.0 + 3.0).astype(np.float32),  # out
            np.full((64, 15), 1e6, dtype=np.float32),  # collapsed, far out
            on_edges.astype(np.float32),
            np.concatenate([on_edges, -on_edges * 1.5]),
        ]
        prepared = prepare_reference(ref)  # once, for every model
        for model in models:
            want = unhoisted_divergences(ref, model)
            for result in (prepared.score(model), scalar_divergences(ref, model)):
                assert {k: result.value(k) for k in want} == want
                assert (result.n_reference, result.n_model) == (512, len(model))

    def test_degenerate_reference_dim_does_not_nan(self):
        ref = np.zeros((128, 1))  # zero variance
        out = np.ones((128, 1))
        result = scalar_divergences(ref, out)
        assert math.isfinite(result.js)
        assert result.js > 0.0


class TestReservoir:
    def test_bounded_and_counts_seen(self):
        res = Reservoir(capacity=16, seed=0)
        res.offer(np.arange(100, dtype=np.float64).reshape(-1, 1))
        assert len(res) == 16
        assert res.seen == 100
        assert res.sample().shape == (16, 1)

    def test_deterministic_for_seed(self):
        rows = np.arange(200, dtype=np.float64).reshape(-1, 2)
        a, b = Reservoir(8, seed=42), Reservoir(8, seed=42)
        a.offer(rows)
        b.offer(rows)
        assert np.array_equal(a.sample(), b.sample())

    def test_under_capacity_keeps_everything(self):
        res = Reservoir(capacity=32, seed=1)
        rows = np.arange(10, dtype=np.float64).reshape(-1, 1)
        res.offer(rows)
        assert np.array_equal(res.sample(), rows)


# -- the judge seam -----------------------------------------------------------


class TestJudgeSeam:
    def test_resolution(self):
        assert isinstance(resolve_judge(None), LossJudge)
        assert isinstance(resolve_judge("loss"), LossJudge)
        assert isinstance(resolve_judge("divergence"), DivergenceJudge)
        judge = DivergenceJudge(metric="hellinger")
        assert resolve_judge(judge) is judge
        with pytest.raises(ValueError):
            resolve_judge("accuracy")
        assert set(JUDGE_NAMES) == {"loss", "divergence"}

    def test_divergence_judge_rejects_bad_metric(self):
        with pytest.raises(ValueError):
            DivergenceJudge(metric="wasserstein")

    def test_loss_judge_matches_tournament_score(self, population):
        me, other = population(k=2)
        judge = LossJudge()
        assert judge.score(me) == me.tournament_score()
        package = other.exchange_package("generator")
        direct = me.score_candidate(package["weights"], "generator")
        via_judge = judge.score_candidate(me, package["weights"], "generator")
        assert via_judge == direct
        # Scoring a candidate must not perturb the trainer's own weights.
        assert judge.score(me) == me.tournament_score()

    def test_divergence_judge_scores_lower_for_better_model(
        self, population
    ):
        trainers = population(k=2)
        for t in trainers:
            t.train_steps(2)
        judge = DivergenceJudge()
        scores = [judge.score(t) for t in trainers]
        assert all(math.isfinite(s) for s in scores)
        assert all(s >= 0.0 for s in scores)

    @pytest.mark.parametrize(
        "topology", ["random_pairwise", "cellular_grid", "multi_discriminator"]
    )
    def test_loss_judge_bit_identical_to_default(
        self, population, val_batch, topology
    ):
        """The seam's acceptance bar: judge="loss" reproduces the pre-seam
        tournament path exactly — same adoptions, same losses, same
        evals — under every deterministic topology."""
        histories = []
        for judge in (None, "loss"):
            driver = LtfbDriver(
                population(k=4, seed=11),
                np.random.default_rng(123),
                LtfbConfig(steps_per_round=2, rounds=3),
                eval_batch=val_batch,
                topology=topology,
                judge=judge,
            )
            histories.append(driver.run())
        base, seamed = histories
        assert base.train_losses == seamed.train_losses
        assert base.tournaments == seamed.tournaments
        assert base.eval_series == seamed.eval_series
        assert base.exchange_bytes == seamed.exchange_bytes

    def test_divergence_judge_runs_and_changes_nothing_structural(
        self, population, val_batch
    ):
        driver = LtfbDriver(
            population(k=2, seed=13),
            np.random.default_rng(5),
            LtfbConfig(steps_per_round=2, rounds=2),
            eval_batch=val_batch,
            judge="divergence",
        )
        history = driver.run()
        assert history.rounds_completed == 2
        assert len(history.tournaments) > 0

    def test_tournament_events_carry_judge_name(self, population, val_batch):
        events = []

        class Recorder:
            wants_spans = False

            def handle(self, event):
                events.append(event)

            def on_run_begin(self, driver):
                pass

            def on_run_end(self, driver, history):
                pass

        driver = LtfbDriver(
            population(k=2, seed=17),
            np.random.default_rng(9),
            LtfbConfig(steps_per_round=1, rounds=1),
            eval_batch=val_batch,
            judge="loss",
        )
        driver.telemetry.subscribe(Recorder())
        driver.run()
        tournaments = [e for e in events if e.type == "tournament"]
        assert tournaments
        assert all(e.payload.get("judge") == "loss" for e in tournaments)


# -- the probe ----------------------------------------------------------------


class TestQualityProbe:
    def test_probe_emits_eval_and_builds_summary(self, population, val_batch):
        probe = QualityProbe(capacity=128, seed=3)
        driver = LtfbDriver(
            population(k=2, seed=19),
            np.random.default_rng(2),
            LtfbConfig(steps_per_round=2, rounds=3),
            eval_batch=val_batch,
        )
        events = []

        class Recorder:
            wants_spans = False

            def handle(self, event):
                if event.type == EVAL and "divergence" in event.payload:
                    events.append(event)

            def on_run_begin(self, driver):
                pass

            def on_run_end(self, driver, history):
                pass

        driver.telemetry.subscribe(Recorder())
        driver.run(callbacks=[probe])
        assert len(events) == 3  # one probe pass per round
        payload = events[-1].payload
        assert payload["metric"] == "js"
        for name, values in payload["divergence"].items():
            for key in ("kl", "js", "hellinger", "mean_delta", "std_delta"):
                assert math.isfinite(values[key])
        # The payload is what scoring each trainer on its own computes.
        params, scalars = probe._reference()
        assert payload["divergence"] == {
            t.name: unhoisted_divergences(
                scalars, t.surrogate.predict_outputs(params)[0]
            )
            for t in driver.trainers
        }
        summary = probe.summary(winner=sorted(payload["divergence"])[0])
        assert summary["metric"] == "js"
        assert summary["round"] == 2
        assert summary["winner_value"] == pytest.approx(
            summary["trainers"][summary["winner"]]["js"]
        )

    def test_summary_none_before_any_probe(self):
        probe = QualityProbe()
        assert probe.summary() is None

    def test_every_skips_rounds(self, population, val_batch):
        probe = QualityProbe(capacity=64, seed=4, every=2)
        driver = LtfbDriver(
            population(k=2, seed=23),
            np.random.default_rng(6),
            LtfbConfig(steps_per_round=1, rounds=4),
            eval_batch=val_batch,
        )
        driver.run(callbacks=[probe])
        probed_rounds = {
            r for points in probe.trajectory.values() for r, _ in points
        }
        assert probed_rounds == {0, 2}

    def test_summary_value_fallbacks(self):
        assert summary_value(None) is None
        assert summary_value({"winner_value": 0.25}) == 0.25
        assert summary_value(
            {
                "metric": "js",
                "winner": "t1",
                "trainers": {"t1": {"js": 0.5}, "t0": {"js": 0.9}},
            }
        ) == 0.5
        assert summary_value(
            {"metric": "js", "trainers": {"a": {"js": 0.7}, "b": {"js": 0.3}}}
        ) == 0.3
        assert summary_value({"metric": "js", "trainers": {}}) is None


# -- checkpoint plumbing ------------------------------------------------------


class TestEvalSummaryManifest:
    def test_round_trip_and_stamp(
        self, tmp_path, population, tiny_autoencoder
    ):
        trainers = population(k=2)
        store = CheckpointStore(tmp_path / "ckpts")
        summary = {"metric": "js", "winner_value": 0.125}
        store.save_population(
            trainers, "with-summary", winner=trainers[0].name,
            eval_summary=summary,
        )
        assert store.eval_summary("with-summary") == summary

        store.save_population(trainers, "bare", winner=trainers[0].name)
        assert store.eval_summary("bare") is None
        store.stamp_eval_summary("bare", {"metric": "js", "winner_value": 0.5})
        assert store.eval_summary("bare")["winner_value"] == 0.5
        store.stamp_eval_summary("bare", None)
        assert store.eval_summary("bare") is None


# -- quality-collapse detection -----------------------------------------------


def _eval_event(round_index, divergence, metric="js", time_s=0.0):
    return TelemetryEvent(
        type=EVAL,
        time_s=time_s,
        sequence=round_index,
        payload={
            "round": round_index,
            "divergence": divergence,
            "metric": metric,
        },
    )


def _step_event(trainer, loss, time_s=0.0):
    return TelemetryEvent(
        type="step_end",
        time_s=time_s,
        sequence=0,
        payload={
            "trainer": trainer,
            "steps": 1,
            "steps_done": 1,
            "elapsed_s": 0.001,
            "losses": {"gen_loss": loss},
        },
    )


class TestHealthMonitorQualityCollapse:
    """The floor-factor rule (once ``HealthMonitor``'s, now the one
    ``quality_collapse`` implementation), driven event by event."""

    def test_flags_blowup_critical_when_loss_improves(self):
        monitor = LiveAggregator(quality_factor=3.0, quality_min_points=2)
        monitor.handle(_step_event("t0", 1.0))
        monitor.handle(_eval_event(0, {"t0": {"js": 0.1}}))
        monitor.handle(_step_event("t0", 0.5))  # loss improving...
        monitor.handle(_eval_event(1, {"t0": {"js": 0.12}}))
        monitor.handle(_eval_event(2, {"t0": {"js": 0.9}}))  # ...quality gone
        (alert,) = monitor.alerts
        assert (alert.kind, alert.severity) == ("quality_collapse", "critical")
        assert (alert.trainer, alert.source, alert.round_index) == (
            "t0", "eval", 2
        )
        assert alert.value == pytest.approx(0.9)
        assert alert.threshold == pytest.approx(0.3)
        assert "9.0x its best 0.1" in alert.message
        assert alert.message.endswith("while its training loss still improves")

    def test_warning_severity_when_loss_also_degrades(self):
        monitor = LiveAggregator(quality_factor=3.0, quality_min_points=2)
        monitor.handle(_step_event("t0", 1.0))
        monitor.handle(_eval_event(0, {"t0": {"js": 0.1}}))
        monitor.handle(_step_event("t0", 5.0))  # loss got worse too
        monitor.handle(_eval_event(1, {"t0": {"js": 0.12}}))
        monitor.handle(_eval_event(2, {"t0": {"js": 0.9}}))
        collapse = [
            w for w in monitor.alerts if w.kind == "quality_collapse"
        ]
        assert len(collapse) == 1
        assert collapse[0].severity == "warning"

    def test_no_flag_for_stable_divergence(self):
        monitor = LiveAggregator()
        for r in range(6):
            monitor.handle(_eval_event(r, {"t0": {"js": 0.1 + 0.01 * r}}))
        assert monitor.alerts == []
        # The first readings only define the floor: a blowup inside the
        # first ``quality_min_points`` readings is not judged yet.
        early = LiveAggregator(quality_min_points=2)
        early.handle(_eval_event(0, {"t0": {"js": 0.1}}))
        early.handle(_eval_event(1, {"t0": {"js": 0.9}}))
        assert early.alerts == []

    def test_driver_eval_payloads_ignored(self):
        monitor = LiveAggregator()
        monitor.handle(
            TelemetryEvent(
                type=EVAL,
                time_s=0.0,
                sequence=0,
                payload={"round": 0, "metrics": {"t0": {"val_loss": 1.0}}},
            )
        )
        assert monitor.alerts == []


class TestLiveAggregatorQualityCollapse:
    """The same rule through the aggregator's live sinks and snapshot."""

    def test_spike_fires_quality_collapse_alert(self):
        hub = TelemetryHub()
        history = SimpleNamespace(health_warnings=[])
        agg = LiveAggregator().attach(hub, history)
        hub.subscribe(agg)
        for r in range(6):
            hub.emit(EVAL, round=r, divergence={"t0": {"js": 0.1}}, metric="js")
        assert history.health_warnings == []
        hub.emit(EVAL, round=6, divergence={"t0": {"js": 2.5}}, metric="js")
        assert [a.kind for a in agg.alerts] == ["quality_collapse"]
        assert history.health_warnings == agg.alerts

    def test_critical_when_loss_improving(self):
        agg = LiveAggregator()
        agg.handle(_step_event("t0", 1.0, time_s=0.0))
        agg.handle(_eval_event(0, {"t0": {"js": 0.1}}, time_s=0.0))
        agg.handle(_step_event("t0", 0.4, time_s=1.0))
        for r in range(1, 6):
            agg.handle(_eval_event(r, {"t0": {"js": 0.1}}, time_s=float(r)))
        agg.handle(_eval_event(6, {"t0": {"js": 3.0}}, time_s=6.0))
        collapse = [a for a in agg.alerts if a.kind == "quality_collapse"]
        assert collapse and collapse[0].severity == "critical"

    def test_snapshot_carries_quality_section(self):
        agg = LiveAggregator()
        agg.handle(_eval_event(0, {"t0": {"js": 0.2, "kl": 0.4}}))
        snap = agg.snapshot()
        assert snap["quality"]["metric"] == "js"
        assert snap["quality"]["round"] == 0
        assert snap["quality"]["divergence"]["t0"]["js"] == pytest.approx(0.2)
        assert "eval_divergence" in snap["windows"]

    def test_driver_eval_payloads_ignored(self):
        agg = LiveAggregator()
        agg.handle(
            TelemetryEvent(
                type=EVAL,
                time_s=0.0,
                sequence=0,
                payload={"round": 0, "metrics": {"t0": {"val_loss": 1.0}}},
            )
        )
        assert agg.snapshot()["quality"] is None


# -- reporting surfaces -------------------------------------------------------


class TestEvalReporting:
    def test_summarize_eval(self):
        events = [
            _eval_event(0, {"t0": {"js": 0.3}, "t1": {"js": 0.5}}),
            _eval_event(1, {"t0": {"js": 0.2}, "t1": {"js": 0.6}}),
        ]
        live = LiveAggregator()
        for event in events:
            live.handle(event)
        agg = live.snapshot()["eval"]
        assert agg["probes"] == 2
        assert agg["metric"] == "js"
        assert agg["last_round"] == 1
        assert agg["trainers"]["t0"] == {
            "last": 0.2, "best": 0.2, "points": 2
        }
        assert agg["trainers"]["t1"]["best"] == 0.5
        # Driver eval payloads don't count as probe passes.
        assert LiveAggregator().snapshot()["eval"] is None

    def test_summarize_eval_skips_non_finite_readings(self, tmp_path):
        # A NaN first reading must not pin ``best`` at NaN: the report
        # reads the same quality rows the live fold keeps.
        from repro.telemetry.callbacks import JsonlTraceWriter
        from repro.telemetry.report import trace_summary

        events = [
            _eval_event(r, {"t0": {"js": value}})
            for r, value in enumerate([float("nan"), 0.5, 0.4])
        ]
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            for event in events:
                writer.handle(event)
        agg = trace_summary(path)["eval"]
        assert agg["trainers"]["t0"] == {"last": 0.4, "best": 0.4, "points": 2}
        live = LiveAggregator()
        for event in events:
            live.handle(event)
        assert live.quality["t0"]["best"] == agg["trainers"]["t0"]["best"]
        assert live.quality["t0"]["points"] == agg["trainers"]["t0"]["points"]

    def test_trace_report_renders_quality_section(self, tmp_path):
        from repro.telemetry.callbacks import JsonlTraceWriter
        from repro.telemetry.report import render_trace_report, trace_summary

        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(path)
        hub = TelemetryHub()
        hub.subscribe(writer)
        hub.emit(
            EVAL,
            round=0,
            divergence={"t0": {"js": 0.25}},
            metric="js",
        )
        writer.close()
        text = render_trace_report(path)
        assert "eval quality:" in text
        assert "t0: last 0.25" in text
        summary = trace_summary(path)
        assert summary["eval"]["trainers"]["t0"]["points"] == 1
        # The text section is a rendering of the dict, number for number.
        quality = summary["eval"]
        row = quality["trainers"]["t0"]
        assert text.splitlines()[-3:] == [
            "eval quality:",
            f"  {quality['probes']} probe pass (metric {quality['metric']}), "
            f"last round {quality['last_round']}",
            f"  t0: last {row['last']:.4g} / best {row['best']:.4g} "
            f"over {row['points']} point",
        ]

    def test_watch_renders_quality_line(self):
        from repro.telemetry.__main__ import render_watch

        agg = LiveAggregator()
        agg.handle(_eval_event(1, {"t0": {"js": 0.31}}))
        text = render_watch(agg.snapshot())
        assert "quality[js] round 1: t0 0.31" in text
