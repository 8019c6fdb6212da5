"""Tests for encode-once: the frozen encoder's latents are kept per
sample (:class:`~repro.models.autoencoder.LatentTable`) and per fixed
batch (:class:`~repro.models.autoencoder.BatchLatent`) instead of being
recomputed.  The contract under test is that nobody can tell — results
are bit-identical to recomputing on every use, on every backend and
across checkpoint resume — and that the caches never travel.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import LtfbConfig, LtfbDriver, build_population
from repro.core.checkpoint import (
    capture_exec_state,
    population_checkpoint,
    restore_population,
    trainer_checkpoint,
)
from repro.core.trainer import Trainer
from repro.exec import resolve_backend
from repro.ingest.channel import StreamedSample
from repro.ingest.universe import SampleUniverse, StreamReader
from repro.models.autoencoder import BatchLatent, LatentTable
from repro.models.cyclegan import ICFSurrogate
from repro.telemetry import Callback
from repro.tensorlib.optimizers import Adam
from repro.utils.rng import RngFactory


def _recompute_always(mp: pytest.MonkeyPatch) -> None:
    """Empty both caches before every use: the reference behaviour, every
    latent recomputed exactly where the caching code would have read it."""
    table_latents, batch_of = LatentTable.latents, BatchLatent.of

    def cold_latents(self, *args):
        self.clear()
        return table_latents(self, *args)

    def cold_of(self, *args):
        self._encoded.clear()
        return batch_of(self, *args)

    mp.setattr(LatentTable, "latents", cold_latents)
    mp.setattr(BatchLatent, "of", cold_of)


@pytest.fixture()
def recompute_always(monkeypatch):
    """Call it to switch the rest of the test to recompute-always."""
    return lambda: _recompute_always(monkeypatch)


def _population(dataset, spec, autoencoder, k=2, seed=77):
    return build_population(
        dataset,
        np.arange(dataset.n_samples - 64),
        RngFactory(seed).child("latents"),
        dataclasses.replace(spec, k=k),
        autoencoder,
    )


def _val_batch(dataset):
    val_ids = np.arange(dataset.n_samples - 64, dataset.n_samples)
    return {k: v[val_ids] for k, v in dataset.fields.items()}


def _driver(trainers, dataset, rounds, steps=4, backend=None, history=None, burned=0):
    rng = np.random.default_rng(424)
    for _ in range(burned):  # realign the (driver-owned) pairing RNG on resume
        rng.permutation(len(trainers))
    return LtfbDriver(
        trainers, rng, LtfbConfig(steps_per_round=steps, rounds=rounds),
        eval_batch=_val_batch(dataset), backend=backend, history=history,
    )


def _same_history(a, b) -> None:
    assert a.rounds_completed == b.rounds_completed
    assert a.train_losses == b.train_losses
    assert a.eval_series == b.eval_series
    assert a.tournaments == b.tournaments
    assert a.pairings == b.pairings
    assert a.exchange_bytes == b.exchange_bytes


def _batch(dataset, ids):
    return dataset.fields["scalars"][ids], dataset.fields["images"][ids]


# -- the two caches on their own ---------------------------------------------


class TestLatentTable:
    def test_gathered_rows_equal_recomputation(self, tiny_dataset, tiny_autoencoder):
        """The row-independence contract, at one batch shape: rows cached
        from one batch, regathered in another order and mix, are bit-equal
        to encoding that batch."""
        table = LatentTable()
        ae = tiny_autoencoder
        for lo in (0, 32):
            ids = np.arange(lo, lo + 32)
            np.testing.assert_array_equal(
                table.latents(ae, ids, *_batch(tiny_dataset, ids)),
                ae.encode(*_batch(tiny_dataset, ids)),
            )
        assert (len(table), table.hits, table.misses) == (64, 0, 64)
        mixed = np.random.default_rng(3).permutation(64)[:32]
        np.testing.assert_array_equal(
            table.latents(ae, mixed, *_batch(tiny_dataset, mixed)),
            ae.encode(*_batch(tiny_dataset, mixed)),
        )
        assert (table.hits, table.misses) == (32, 64)

    def test_any_unseen_id_encodes_the_whole_batch(
        self, tiny_dataset, tiny_autoencoder
    ):
        table = LatentTable()
        ae = tiny_autoencoder
        seen = np.arange(32)
        table.latents(ae, seen, *_batch(tiny_dataset, seen))
        # Poison the cached rows: a batch with one unseen id must not read
        # any of them, and must add exactly that id.
        table._rows[:] = np.nan
        ids = np.append(seen[:31], 200)
        out = table.latents(ae, ids, *_batch(tiny_dataset, ids))
        np.testing.assert_array_equal(out, ae.encode(*_batch(tiny_dataset, ids)))
        assert (len(table), table.hits, table.misses) == (33, 0, 64)

    def test_repeated_and_negative_ids(self, tiny_dataset, tiny_autoencoder):
        table = LatentTable()
        ids = np.array([5, 5, 9, 5])
        table.latents(tiny_autoencoder, ids, *_batch(tiny_dataset, ids))
        assert len(table) == 2
        with pytest.raises(ValueError, match="non-negative"):
            table.latents(
                tiny_autoencoder, np.array([-1, 2]), *_batch(tiny_dataset, [0, 2])
            )

    def test_weight_change_or_other_encoder_empties_it(
        self, tiny_dataset, tiny_autoencoder
    ):
        ae = copy.deepcopy(tiny_autoencoder)
        table = LatentTable()
        ids = np.arange(32)
        batch = _batch(tiny_dataset, ids)
        before = table.latents(ae, ids, *batch)
        ae.train_step({"scalars": batch[0], "images": batch[1]}, Adam(1e-2))
        after = table.latents(ae, ids, *batch)
        np.testing.assert_array_equal(after, ae.encode(*batch))
        assert not np.array_equal(before, after)
        assert (table.hits, table.misses) == (0, 64)
        ae.set_state(tiny_autoencoder.get_state())
        np.testing.assert_array_equal(table.latents(ae, ids, *batch), before)
        assert table.misses == 96
        # Same weights, same generation count, different object: no hit.
        twin = copy.deepcopy(ae)
        table.latents(twin, ids, *batch)
        assert (table.hits, table.misses) == (0, 128)

    def test_copies_are_empty(self, tiny_dataset, tiny_autoencoder):
        table = LatentTable()
        ids = np.arange(32)
        table.latents(tiny_autoencoder, ids, *_batch(tiny_dataset, ids))
        for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert (len(clone), clone.hits, clone.misses) == (0, 0, 0)
        assert len(pickle.dumps(table)) == len(pickle.dumps(LatentTable()))


class TestBatchLatent:
    def test_encodes_once_per_encoder_generation_and_batch(
        self, tiny_dataset, tiny_autoencoder
    ):
        ae = copy.deepcopy(tiny_autoencoder)
        scalars, images = _batch(tiny_dataset, np.arange(48))
        batch = {"scalars": scalars, "images": images}
        fixed = BatchLatent()
        z = fixed.of(ae, batch)
        np.testing.assert_array_equal(z, ae.encode(scalars, images))
        assert fixed.of(ae, batch) is z
        assert fixed.of(ae, dict(batch)) is z  # same arrays, another mapping
        # A second encoder gets its own entry; the first keeps its.
        twin = copy.deepcopy(ae)
        assert fixed.of(twin, batch) is not z
        assert fixed.of(ae, batch) is z
        # Weights change: re-encoded.
        ae.train_step(batch, Adam(1e-2))
        z2 = fixed.of(ae, batch)
        np.testing.assert_array_equal(z2, ae.encode(scalars, images))
        assert not np.array_equal(z, z2)
        # Other arrays: re-encoded.
        shorter = {"scalars": scalars[:16], "images": images[:16]}
        assert fixed.of(ae, shorter).shape[0] == 16
        assert len(pickle.dumps(fixed)) == len(pickle.dumps(BatchLatent()))


# -- (a) every backend equals recompute-always --------------------------------


@pytest.fixture(scope="module")
def cold_history(tiny_dataset, tiny_spec, tiny_autoencoder):
    """Serial run with both caches emptied before every use."""
    mp = pytest.MonkeyPatch()
    _recompute_always(mp)
    try:
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=4)
        history = _driver(trainers, tiny_dataset, rounds=3).run()
        assert all(t.latent_table.hits == 0 for t in trainers)
    finally:
        mp.undo()
    return history


class TestBackendsMatchRecomputation:
    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_history_equals_cold_run(
        self, backend_name, cold_history, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=4)
        backend = resolve_backend(backend_name, max_workers=2)
        steps = []

        class Steps(Callback):
            def on_step_end(self, event):
                steps.append(event.payload)

        history = _driver(trainers, tiny_dataset, rounds=3, backend=backend).run(
            callbacks=[Steps()]
        )
        _same_history(history, cold_history)
        # 12 steps of batch 32 over a 98-sample silo (3-step epochs): epoch
        # 0 missed, later epochs gathered except around the few samples
        # drop_last had left out so far -- reported by the step_end events
        # wherever the steps ran.
        for t in trainers:
            mine = [p for p in steps if p["trainer"] == t.name]
            hits = sum(p["latent_hits"] for p in mine)
            misses = sum(p["latent_misses"] for p in mine)
            assert hits + misses == 12 * 32
            assert hits > 0 and misses >= 3 * 32 and misses % 32 == 0
            if backend_name == "serial":
                assert (t.latent_table.hits, t.latent_table.misses) == (hits, misses)
                assert len(t.latent_table) <= t.reader.num_samples


# -- (b) resume with a cold table ---------------------------------------------


class TestResumeWithColdTable:
    ROUNDS, INTERRUPT_AT, STEPS = 4, 2, 4  # 6-step epochs: always mid-epoch

    @pytest.fixture()
    def fresh(self, tiny_dataset, tiny_spec, tiny_autoencoder):
        """Builds identical populations at a prefetch depth; their
        prefetch threads are stopped when the test ends."""
        built = []

        def build(depth):
            trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
            for t in trainers:
                assert t.reader.steps_per_epoch(32) == 6
                t.set_prefetch_depth(depth)
            built.extend(trainers)
            return trainers

        yield build
        for t in built:
            t.suspend_data_pipeline()

    @pytest.mark.parametrize("depth", [0, 2])
    def test_resume_matches_uninterrupted_warm_run(self, depth, fresh, tiny_dataset):
        ref_pop = fresh(depth)
        full = _driver(ref_pop, tiny_dataset, self.ROUNDS, self.STEPS).run()
        assert all(t.latent_table.hits > 0 for t in ref_pop)

        pop_a = fresh(depth)
        partial = _driver(pop_a, tiny_dataset, self.INTERRUPT_AT, self.STEPS).run()
        payloads = population_checkpoint(pop_a)

        pop_b = fresh(depth)
        restore_population(pop_b, payloads)
        assert all(len(t.latent_table) == 0 for t in pop_b)
        resumed = _driver(
            pop_b, tiny_dataset, self.ROUNDS, self.STEPS,
            history=partial, burned=self.INTERRUPT_AT,
        ).run()
        _same_history(resumed, full)
        for ref, res in zip(ref_pop, pop_b):
            a, b = ref.surrogate.get_full_state(), res.surrogate.get_full_state()
            assert set(a) == set(b)
            assert all(np.array_equal(a[k], b[k]) for k in a)
            # The resumed table refilled from the restored plan cursor on.
            assert res.latent_table.hits + res.latent_table.misses == 8 * 32
            assert res.latent_table.misses > 0
            assert res.latent_table.hits <= ref.latent_table.hits


# -- (c) invalidation ----------------------------------------------------------


class _RetrainEncoder(Callback):
    """Moves the shared autoencoder's weights after a given round."""

    def __init__(self, autoencoder, batch, after_round, how) -> None:
        self.autoencoder, self.batch = autoencoder, batch
        self.after_round, self.how = after_round, how

    def on_round_end(self, event) -> None:
        if event.payload["round"] != self.after_round:
            return
        if self.how == "train_step":
            self.autoencoder.train_step(self.batch, Adam(5e-2))
        else:
            state = self.autoencoder.get_state()
            self.autoencoder.set_state({k: 0.5 * v for k, v in state.items()})


class TestInvalidation:
    @pytest.mark.parametrize("how", ["train_step", "set_state"])
    def test_encoder_change_between_rounds(
        self, how, recompute_always, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        def run(retrain: bool):
            ae = copy.deepcopy(tiny_autoencoder)
            trainers = _population(tiny_dataset, tiny_spec, ae)
            hook = _RetrainEncoder(ae, _val_batch(tiny_dataset), 1, how)
            history = _driver(trainers, tiny_dataset, rounds=4, steps=6).run(
                callbacks=[hook] if retrain else []
            )
            return history, trainers

        warm, trainers = run(retrain=True)
        untouched, untouched_trainers = run(retrain=False)
        # The change emptied the tables: more rows went through the
        # encoder than in the run whose tables lived on.
        for t, u in zip(trainers, untouched_trainers):
            assert t.latent_table.hits + t.latent_table.misses == 24 * 32
            assert t.latent_table.misses >= u.latent_table.misses + 6 * 32
        recompute_always()
        cold, _ = run(retrain=True)
        _same_history(warm, cold)
        # ... and the change was visible: the one metric that reads the
        # encoder's latents (inverse_mae) moved from round 2 on.
        def inverse(history, r):
            return [m["inverse_mae"] for m in history.eval_series[r].values()]

        assert inverse(warm, 1) == inverse(untouched, 1)
        assert inverse(warm, 2) != inverse(untouched, 2)


# -- (d) the caches never travel, callers' batches are not touched ------------


class TestDerivedStateStaysHome:
    def test_sizes_do_not_grow_and_inputs_are_untouched(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        eval_batch = _val_batch(tiny_dataset)
        rng = np.random.default_rng(5)
        driver = LtfbDriver(
            trainers, rng, LtfbConfig(steps_per_round=6, rounds=2),
            eval_batch=eval_batch,
        )
        tournament_batch = {k: v[:40] for k, v in tiny_dataset.fields.items()}
        extra = Trainer(
            "extra", trainers[0].surrogate, trainers[0].reader, tournament_batch,
            trainers[0].config,
        )
        extra.tournament_score()
        driver.run()
        for owned in (eval_batch, tournament_batch):
            assert set(owned) == set(tiny_dataset.fields)
        assert all(
            eval_batch[k] is driver.eval_batch[k] for k in eval_batch
        )

        t = trainers[0]
        t.telemetry = None  # as the process backend does before shipping
        assert len(t.latent_table) >= 6 * 32
        def sizes():
            return (
                len(pickle.dumps(t)),
                len(capture_exec_state(t)),
                len(trainer_checkpoint(t)),
            )

        warm = sizes()
        clone = pickle.loads(pickle.dumps(t))
        assert len(clone.latent_table) == 0 and clone.latent_table.hits == 0
        t.latent_table = LatentTable()
        assert sizes() == warm
        # The clone trains on exactly as the original does.
        assert clone.train_steps(3) == t.train_steps(3)


# -- (e) a growing universe -----------------------------------------------------


class TestStreamReaderGrowth:
    def _trainer(self, dataset, spec, autoencoder, n0):
        universe = SampleUniverse()
        universe.admit(self._samples(dataset, 0, n0))
        rngs = RngFactory(11).child("stream")
        reader = StreamReader(universe, rngs.generator("reader"))
        surrogate = ICFSurrogate(rngs, spec.surrogate, autoencoder)
        tournament = {k: v[400:432] for k, v in dataset.fields.items()}
        return Trainer("s", surrogate, reader, tournament, spec.trainer)

    @staticmethod
    def _samples(dataset, lo, hi):
        return [
            StreamedSample(
                sample_id=i,
                fields={k: v[i] for k, v in dataset.fields.items()},
                produced_at=0.0,
                task_id=i,
            )
            for i in range(lo, hi)
        ]

    def _run(self, dataset, spec, autoencoder):
        t = self._trainer(dataset, spec, autoencoder, 64)
        losses = [t.train_steps(4)]  # two 2-step epochs over ids 0..63
        counts = [(len(t.latent_table), t.latent_table.hits, t.latent_table.misses)]
        # What StreamingSource.poll does to a trainer: admit, then fold the
        # pipeline so the next plan sees the grown universe.
        t.reader.ingest_admit(self._samples(dataset, 64, 96))
        t.suspend_data_pipeline()
        losses.append(t.train_steps(3))  # one 3-step epoch over ids 0..95
        counts.append((len(t.latent_table), t.latent_table.hits, t.latent_table.misses))
        losses.append(t.train_steps(3))
        counts.append((len(t.latent_table), t.latent_table.hits, t.latent_table.misses))
        return losses, counts

    def test_new_ids_miss_and_are_added(
        self, recompute_always, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        losses, counts = self._run(tiny_dataset, tiny_spec, tiny_autoencoder)
        assert counts[0] == (64, 64, 64)
        # 32 fresh ids shuffled into three batches of 32: every batch held
        # one (for this seed), so the whole epoch was encoded ...
        assert counts[1] == (96, 64, 64 + 96)
        # ... and the epoch after it ran from the table.
        assert counts[2] == (96, 64 + 96, 64 + 96)
        recompute_always()
        cold_losses, _ = self._run(tiny_dataset, tiny_spec, tiny_autoencoder)
        assert losses == cold_losses


# -- observability ---------------------------------------------------------------


class TestTraceReport:
    @pytest.mark.parametrize("backend_name", ["serial", "process"])
    def test_hit_ratio_is_answerable_from_a_trace(
        self, backend_name, tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        from repro.telemetry import JsonlTraceWriter
        from repro.telemetry.report import render_trace_report, trace_summary

        trace = tmp_path / "trace.jsonl"
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        _driver(
            trainers, tiny_dataset, rounds=2, steps=6,
            backend=resolve_backend(backend_name, max_workers=2),
        ).run(callbacks=[JsonlTraceWriter(trace)])
        counters = trace_summary(trace)["counters"]
        rows = 2 * 12 * 32  # trainers x steps x batch
        assert counters["latent_hits"] + counters["latent_misses"] == rows
        assert counters["latent_misses"] >= 2 * 6 * 32  # epoch 0 of each
        assert 0.0 < counters["latent_hit_ratio"] <= 0.5
        assert counters["latent_hit_ratio"] == counters["latent_hits"] / rows
        text = render_trace_report(trace)
        # The text is a rendering of the summary dict, number for number.
        assert (
            f"  latent table: {counters['latent_hits']} rows gathered / "
            f"{counters['latent_misses']} encoded "
            f"(hit ratio {counters['latent_hit_ratio']:.3f})"
        ) in text.splitlines()
        assert (
            f"  fetch stalls: {counters['fetch_stalls']} "
            f"(stalled {counters['fetch_stall_s']:.3f}s, overlapped "
            f"{counters['fetch_overlap_s']:.3f}s of materialization)"
        ) in text.splitlines()
        workers = {
            key[len("train_s["):-1]: seconds
            for key, seconds in counters.items()
            if key.startswith("train_s[")
        }
        assert workers  # every backend attributes train time to a worker
        for key, seconds in workers.items():
            assert f"  {key}: {seconds:.3f}s (" in text
            assert f"    {key}: stall {counters[f'stall_s[{key}]']:.3f}s" in text

    def test_older_traces_without_the_fields_still_fold(self, tmp_path):
        from repro.telemetry import (
            JsonlTraceWriter,
            MetricsCollector,
            TelemetryHub,
            trace_summary,
        )

        trace = tmp_path / "trace.jsonl"
        metrics = MetricsCollector()
        hub = TelemetryHub()
        hub.subscribe(metrics)
        with JsonlTraceWriter(trace) as writer:
            hub.subscribe(writer)
            hub.emit("step_end", trainer="t", steps=3, elapsed_s=0.5)
        assert (
            metrics.registry["repro_latent_hits_total"].value,
            metrics.registry["repro_latent_misses_total"].value,
        ) == (0, 0)
        assert trace_summary(trace)["counters"]["latent_hit_ratio"] == 0.0
