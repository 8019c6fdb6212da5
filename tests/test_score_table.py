"""Tests for score-once: a round's scorings of a generator on a fixed set
are looked up in the driver's :class:`~repro.core.trainer.ScoreTable`
before they are computed (DESIGN.md §6.2).  The contract under test is
that nobody can tell — every History equals a run whose table never
hits — while the model work drops to one scoring per distinct generator
and set, and that any write to a generator weight is a new key.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver, build_population
from repro.core.trainer import ScoreTable
from repro.eval import QualityProbe
from repro.exec import resolve_backend
from repro.models.cyclegan import ICFSurrogate
from repro.tensorlib.losses import mean_absolute_error, mean_absolute_error_value
from repro.utils.rng import RngFactory

K, ROUNDS = 4, 2


def _population(dataset, spec, autoencoder, scope="global", metric="val_loss"):
    trainer = dataclasses.replace(spec.trainer, tournament_metric=metric)
    return build_population(
        dataset,
        np.arange(dataset.n_samples - 64),
        RngFactory(31).child("scores"),
        dataclasses.replace(spec, k=K, tournament_scope=scope, trainer=trainer),
        autoencoder,
    )


def _val_batch(dataset):
    return {k: v[-64:] for k, v in dataset.fields.items()}


@pytest.fixture()
def run(tiny_dataset, tiny_spec, tiny_autoencoder):
    """``run(**options) -> (driver, history, probe)``: a k = 4 population
    trained ``ROUNDS`` rounds of 2 steps with a quality probe attached."""

    def go(scope="global", exchange="generator", backend=None, probe=True,
           metric="val_loss", **driver_kw):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, scope, metric)
        driver = LtfbDriver(
            trainers, np.random.default_rng(8),
            LtfbConfig(steps_per_round=2, rounds=ROUNDS, exchange=exchange),
            eval_batch=_val_batch(tiny_dataset),
            backend=resolve_backend(backend, max_workers=2) if backend else None,
            **driver_kw,
        )
        probe = QualityProbe(capacity=96, seed=5) if probe else None
        history = driver.run(callbacks=[probe] if probe else [])
        return driver, history, probe

    return go


@pytest.fixture()
def never_hit(monkeypatch):
    """Call it to make every table lookup compute (the reference run)."""
    lookup = ScoreTable.lookup

    def cold(self, *args, **kwargs):
        self.clear()
        return lookup(self, *args, **kwargs)

    return lambda: monkeypatch.setattr(ScoreTable, "lookup", cold)


@pytest.fixture()
def scorings(monkeypatch):
    """Counts the model work of every scoring: ``evaluate`` calls by
    whether they compute ``inverse_mae`` (the eval phase) or not (the
    loss judge's tournament scoring), and ``predict_outputs`` calls (the
    probe and the divergence judge)."""
    counts = {"tournament": 0, "eval": 0, "predict": 0}
    evaluate, predict = ICFSurrogate.evaluate, ICFSurrogate.predict_outputs

    def counted_evaluate(self, batch, latent_real=None, inverse=True):
        counts["eval" if inverse else "tournament"] += 1
        return evaluate(self, batch, latent_real, inverse)

    def counted_predict(self, params):
        counts["predict"] += 1
        return predict(self, params)

    monkeypatch.setattr(ICFSurrogate, "evaluate", counted_evaluate)
    monkeypatch.setattr(ICFSurrogate, "predict_outputs", counted_predict)
    return counts


def _same_history(a, b) -> None:
    assert a.rounds_completed == b.rounds_completed
    assert a.train_losses == b.train_losses
    assert a.eval_series == b.eval_series
    assert a.tournaments == b.tournaments
    assert a.pairings == b.pairings
    assert a.byes == b.byes
    assert a.exchange_bytes == b.exchange_bytes


# -- (a) one scoring per distinct generator and set ---------------------------


class TestCounts:
    def test_global_pairwise_scores_each_generator_once(self, run, scorings, cli_backend):
        """k = 4, global scope: 4 tournament scorings a round (not 8), and
        after two adoptions 2 eval scorings and 2 probe scorings (not 4)."""
        driver, history, _ = run(backend=cli_backend)
        assert sum(t.adopted_partner for t in history.tournaments) == 2 * ROUNDS
        assert scorings == {
            "tournament": 4 * ROUNDS, "eval": 2 * ROUNDS, "predict": 2 * ROUNDS,
        }
        # The last round's eval rows serve best_trainer: no new scoring.
        driver.best_trainer()
        assert scorings["eval"] == 2 * ROUNDS

    def test_local_scope_keeps_its_cross_scorings(self, run, scorings):
        run(scope="local", probe=False)
        assert scorings["tournament"] == 8 * ROUNDS

    def test_multi_discriminator_scores_k_not_k_squared(self, run, scorings):
        run(topology="multi_discriminator", probe=False)
        assert scorings["tournament"] == K * ROUNDS

    def test_divergence_judge(self, run, scorings):
        run(judge="divergence", probe=False)
        assert scorings["predict"] == 4 * ROUNDS
        assert scorings["tournament"] == 0


# -- (b) nobody can tell -------------------------------------------------------


class TestEqualsNeverHit:
    @pytest.mark.parametrize("scope", ["global", "local"])
    @pytest.mark.parametrize("judge", ["loss", "divergence"])
    @pytest.mark.parametrize(
        "topology", ["random_pairwise", "multi_discriminator", "async_pairwise"]
    )
    def test_history_and_probe(self, run, never_hit, topology, judge, scope):
        _, cached, probe = run(scope=scope, topology=topology, judge=judge)
        never_hit()
        _, cold, cold_probe = run(scope=scope, topology=topology, judge=judge)
        _same_history(cached, cold)
        assert probe.trajectory == cold_probe.trajectory

    @pytest.mark.parametrize("topology", ["random_pairwise", "multi_discriminator"])
    def test_full_exchange(self, run, never_hit, topology):
        _, cached, _ = run(exchange="full", topology=topology)
        never_hit()
        _, cold, _ = run(exchange="full", topology=topology)
        _same_history(cached, cold)

    def test_discriminator_metric_bypasses_the_table(self, run, never_hit):
        """It reads the seat's own D: a candidate's score from another
        seat is not the candidate's own score."""
        _, cached, _ = run(metric="discriminator", probe=False)
        never_hit()
        _, cold, _ = run(metric="discriminator", probe=False)
        _same_history(cached, cold)

    def test_on_every_backend_and_topology(
        self, run, never_hit, cli_backend, cli_topology
    ):
        """CI re-runs this under every backend and topology: the cached
        run there equals the never-hit serial run."""
        _, cached, probe = run(backend=cli_backend, topology=cli_topology)
        never_hit()
        _, cold, cold_probe = run(topology=cli_topology)
        if cli_topology != "async_pairwise" or cli_backend == "serial":
            _same_history(cached, cold)  # async pairs in completion order
            assert probe.trajectory == cold_probe.trajectory


# -- (c) the key is the content -------------------------------------------------


class TestKey:
    @pytest.fixture()
    def trainer(self, tiny_dataset, tiny_spec, tiny_autoencoder):
        return _population(tiny_dataset, tiny_spec, tiny_autoencoder)[0]

    def test_in_place_weight_write_misses(self, trainer):
        table, calls = ScoreTable(), []

        def score():
            calls.append(1)
            return trainer.tournament_score()

        def lookup(**kw):
            return table.lookup(("val_loss",), trainer.surrogate,
                                trainer.tournament_batch.values(), score, **kw)

        first = lookup()
        assert lookup() == first and len(calls) == 1
        # A candidate's exchanged weights with the same content hit, with
        # or without a discriminator beside them.
        assert lookup(weights=trainer.surrogate.get_full_state()) == first
        assert len(calls) == 1
        w = trainer.surrogate.inverse_model.trainable_weights[-1]
        w.value[0] = np.nextafter(w.value[0], np.float32(np.inf))
        second = lookup()
        assert len(calls) == 2 and second == trainer.tournament_score()
        # A discriminator write is not part of the generator.
        trainer.surrogate.discriminator.trainable_weights[0].value[0] += 1.0
        assert lookup() == second and len(calls) == 2

    def test_set_autoencoder_and_what_are_part_of_the_key(self, trainer):
        table, batch = ScoreTable(), trainer.tournament_batch
        n = []

        def count():
            n.append(1)
            return 0.0

        surrogate = trainer.surrogate
        table.lookup("a", surrogate, batch.values(), count)
        table.lookup("b", surrogate, batch.values(), count)
        table.lookup("a", surrogate, [v.copy() for v in batch.values()], count)
        surrogate.autoencoder.generation += 1
        try:
            table.lookup("a", surrogate, batch.values(), count)
        finally:
            surrogate.autoencoder.generation -= 1
        table.lookup(None, surrogate, batch.values(), count)
        table.lookup("a", surrogate, batch.values(), count)
        assert len(n) == 5

    def test_rows_come_back_as_copies(self, trainer):
        table = ScoreTable()
        args = (("eval",), trainer.surrogate, trainer.tournament_batch.values())
        row = table.lookup(*args, lambda: {"val_loss": 1.0})
        row["val_loss"] = 2.0
        assert table.lookup(*args, lambda: {"val_loss": 3.0}) == {"val_loss": 1.0}

    def test_table_holds_one_round(self, run):
        driver, _, _ = run(probe=False)
        # The last round's rows only: 4 tournament and 2 eval scorings.
        assert len(driver.scores._rows) == 6


def test_mae_value_bit_equal_to_mean_absolute_error():
    rng = np.random.default_rng(3)
    for shape in [(64, 5), (492, 3072), (4, 32, 15)]:
        pred, target = (rng.standard_normal((2, *shape)) * 3).astype(np.float32)
        value = mean_absolute_error_value(pred, target)
        expected = mean_absolute_error(pred, target)[0]
        assert np.array_equal(np.asarray(value), np.asarray(expected))
