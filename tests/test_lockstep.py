"""Lockstep training: the serial backend trains its population as stacks.

Trainers that agree on everything but learning rates form one
:func:`~repro.core.trainer.lockstep_groups` group and train as one
``[k, b, ·]`` population; the rest form their own groups.  However the
population splits, the run must equal the thread and process backends'
(which train each trainer as a group of one) bit for bit, under either
optimizer adoption mode and across a mid-run checkpoint/resume.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver, Trainer, TrainerConfig, build_population
from repro.core.checkpoint import population_checkpoint, restore_population
from repro.core.trainer import lockstep_groups, train_lockstep
from repro.exec import resolve_backend
from repro.models.cyclegan import ICFSurrogate
from repro.utils.rng import RngFactory

JITTER = 0.3


def _population(
    tiny_dataset, tiny_spec, tiny_autoencoder, k=4, adopt="exchange", mixed=True,
):
    """k jittered trainers; with ``mixed`` the last one draws batches of 16
    instead of 32, so it trains in a group of its own."""
    spec = dataclasses.replace(
        tiny_spec, k=k, hyperparam_jitter=JITTER,
        trainer=TrainerConfig(batch_size=32, adopt_optimizer=adopt),
    )
    trainers = build_population(
        tiny_dataset,
        np.arange(tiny_dataset.n_samples - 64),
        RngFactory(91).child("lockstep"),
        spec,
        tiny_autoencoder,
    )
    if mixed:
        last = trainers[-1]
        trainers[-1] = Trainer(
            last.name, last.surrogate, last.reader, last.tournament_batch,
            dataclasses.replace(last.config, batch_size=16),
        )
    return trainers


def _eval_batch(tiny_dataset):
    val_ids = np.arange(tiny_dataset.n_samples - 64, tiny_dataset.n_samples)
    return {k: v[val_ids] for k, v in tiny_dataset.fields.items()}


def _driver(trainers, tiny_dataset, rounds, backend=None, history=None, burned=0):
    rng = np.random.default_rng(5)
    for _ in range(burned):  # realign the pairing RNG of a resumed run
        rng.permutation(len(trainers))
    return LtfbDriver(
        trainers,
        rng,
        LtfbConfig(steps_per_round=4, rounds=rounds),
        eval_batch=_eval_batch(tiny_dataset),
        backend=backend,
        history=history,
    )


def _assert_same_run(history, trainers, ref_history, ref_trainers):
    assert history.train_losses == ref_history.train_losses
    assert history.eval_series == ref_history.eval_series
    assert history.tournaments == ref_history.tournaments
    assert history.pairings == ref_history.pairings
    assert history.exchange_bytes == ref_history.exchange_bytes
    for t, ref in zip(trainers, ref_trainers):
        assert t.steps_done == ref.steps_done
        assert t.surrogate.steps_trained == ref.surrogate.steps_trained
        for key, value in ref.surrogate.get_full_state().items():
            np.testing.assert_array_equal(t.surrogate.get_full_state()[key], value)
        for opt, ref_opt in (
            (t.gen_optimizer, ref.gen_optimizer),
            (t.disc_optimizer, ref.disc_optimizer),
        ):
            state, ref_state = opt.get_state(), ref_opt.get_state()
            assert state["step_count"] == ref_state["step_count"]
            assert list(state["slots"]) == list(ref_state["slots"])
            for wname, slots in ref_state["slots"].items():
                for slot, value in slots.items():
                    np.testing.assert_array_equal(state["slots"][wname][slot], value)


class TestGroups:
    def test_learning_rates_stack_batch_sizes_and_widths_do_not(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        rates = {t.surrogate.config.learning_rate for t in trainers}
        assert len(rates) == len(trainers)  # jitter: every rate differs
        assert [[t.name for t in g] for g in lockstep_groups(trainers)] == [
            [t.name for t in trainers[:-1]], [trainers[-1].name],
        ]
        wide = trainers[0]
        cfg = dataclasses.replace(wide.surrogate.config, forward_hidden=(32, 32))
        trainers[0] = Trainer(
            wide.name, ICFSurrogate(RngFactory(3), cfg, tiny_autoencoder),
            wide.reader, wide.tournament_batch, wide.config,
        )
        assert [len(g) for g in lockstep_groups(trainers)] == [1, 2, 1]

    def test_stacked_steps_equal_unstacked_train_steps(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        """A 3-trainer stack against each trainer's own 2-D
        ``ICFSurrogate.train_step`` calls on the same batches."""
        stacked = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=3, mixed=False)
        plain = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=3, mixed=False)
        for n_steps in (3, 5):
            means = train_lockstep(stacked, n_steps)
            for t, trainer_means in zip(plain, means):
                sums: dict[str, float] = {}
                for _ in range(n_steps):
                    feeds, latent = t._step_inputs()
                    terms = t.surrogate.train_step(
                        feeds, t.disc_optimizer, t.gen_optimizer, latent
                    )
                    for name, value in terms.items():
                        sums[name] = sums.get(name, 0.0) + value
                t.steps_done += n_steps
                assert trainer_means == {n: v / n_steps for n, v in sums.items()}
        for t, ref in zip(stacked, plain):
            assert t.steps_done == ref.steps_done == 8
            assert t.surrogate.steps_trained == ref.surrogate.steps_trained == 8
            for key, value in ref.surrogate.get_full_state().items():
                np.testing.assert_array_equal(t.surrogate.get_full_state()[key], value)
            assert t.gen_optimizer.step_count == ref.gen_optimizer.step_count == 8


@pytest.fixture(scope="module", params=["exchange", "reset"])
def serial_mixed_run(request, tiny_dataset, tiny_spec, tiny_autoencoder):
    trainers = _population(
        tiny_dataset, tiny_spec, tiny_autoencoder, adopt=request.param
    )
    assert len(lockstep_groups(trainers)) == 2
    history = _driver(trainers, tiny_dataset, rounds=3).run()
    assert sum(t.adopted_partner for t in history.tournaments) > 0
    return request.param, history, trainers


class TestMixedPopulation:
    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_two_groups_equal_parallel_backends(
        self, backend_name, serial_mixed_run, tiny_dataset, tiny_spec,
        tiny_autoencoder,
    ):
        adopt, ref_history, ref_trainers = serial_mixed_run
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, adopt=adopt)
        history = _driver(
            trainers, tiny_dataset, rounds=3,
            backend=resolve_backend(backend_name, max_workers=2),
        ).run()
        _assert_same_run(history, trainers, ref_history, ref_trainers)

    def test_mid_run_resume(
        self, serial_mixed_run, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        """Stop after round 1 (mid-epoch), checkpoint, restore into a
        freshly built population and finish: the uninterrupted run's
        history and state."""
        adopt, ref_history, ref_trainers = serial_mixed_run
        first = _population(tiny_dataset, tiny_spec, tiny_autoencoder, adopt=adopt)
        partial = _driver(first, tiny_dataset, rounds=1).run()
        fresh = _population(tiny_dataset, tiny_spec, tiny_autoencoder, adopt=adopt)
        restore_population(fresh, population_checkpoint(first))
        resumed = _driver(
            fresh, tiny_dataset, rounds=3, history=partial, burned=1
        ).run()
        _assert_same_run(resumed, fresh, ref_history, ref_trainers)
