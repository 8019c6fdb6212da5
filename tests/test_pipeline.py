"""Tests for the plan/materialize data plane and the prefetch pipeline.

The refactor's contract, straight from the module docstrings:

- ``plan_epoch`` is the *only* phase that touches the reader RNG;
  ``materialize`` is RNG-free, so it can run arbitrarily far ahead;
- ``epoch()`` is plan-then-materialize, so the three consumption styles
  (generator, synchronous pipeline, prefetching pipeline) deliver the
  same batches in the same order with the same side effects;
- ``epochs_completed`` uses delivery semantics: it advances exactly when
  an epoch's final batch reaches the consumer;
- a prefetch pipeline of any depth is bit-identical to depth 0, across
  every execution backend, and checkpoint/resume works mid-epoch with
  batches still sitting in the prefetch queue.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.cluster.filesystem import SimulatedFilesystem
from repro.core import LtfbConfig, LtfbDriver, build_population
from repro.core.checkpoint import restore_trainer, trainer_checkpoint
from repro.datastore import (
    ArrayReader,
    BatchPipeline,
    DistributedDataStore,
    PrefetchingReader,
    StoreReader,
    build_pipeline,
)
from repro.datastore.bundle import write_bundles
from repro.exec import resolve_backend
from repro.telemetry import JsonlTraceWriter, MetricsCollector, TelemetryHub
from repro.utils.rng import RngFactory

N, BATCH = 64, 8


def make_reader(seed=0, n=N):
    fields = {
        "x": np.arange(2 * n, dtype=np.float32).reshape(n, 2),
        "tag": np.arange(n, dtype=np.float32).reshape(n, 1),
    }
    return ArrayReader(fields, np.arange(n), np.random.default_rng(seed))


def make_replanned_rng(state):
    """Where one ``plan_epoch`` from a plan cursor's RNG state leaves the
    generator (what construction-time planning followed by ``restore``
    left it at, too: ``restore`` rewinds before it re-plans)."""
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state["epoch_rng_state"]
    rng.permutation(N)
    return rng.bit_generator.state


def assert_batches_equal(a, b):
    assert len(a) == len(b)
    for mb_a, mb_b in zip(a, b):
        np.testing.assert_array_equal(mb_a.sample_ids, mb_b.sample_ids)
        assert sorted(mb_a.feeds) == sorted(mb_b.feeds)
        for name in mb_a.feeds:
            np.testing.assert_array_equal(mb_a.feeds[name], mb_b.feeds[name])


class TestPlanEpoch:
    def test_plan_partitions_population(self):
        reader = make_reader()
        plan = reader.plan_epoch(BATCH)
        assert len(plan) == N // BATCH
        assert [bp.step_index for bp in plan] == list(range(len(plan)))
        assert [bp.is_last for bp in plan] == [False] * (len(plan) - 1) + [True]
        assert all(bp.epoch_index == 0 for bp in plan)
        ids = np.concatenate([bp.sample_ids for bp in plan])
        np.testing.assert_array_equal(np.sort(ids), np.arange(N))

    def test_epoch_indices_advance_per_plan(self):
        reader = make_reader()
        assert reader.plan_epoch(BATCH).epoch_index == 0
        assert reader.plan_epoch(BATCH).epoch_index == 1

    def test_plan_snapshots_pre_plan_rng_state(self):
        reader = make_reader(seed=3)
        plan = reader.plan_epoch(BATCH)
        replay = make_reader(seed=999)  # different seed, state overwritten
        replay._rng.bit_generator.state = plan.rng_state
        replay._epochs_planned = plan.epoch_index
        replanned = reader.materialize  # keep lints quiet about unused
        del replanned
        plan2 = replay.plan_epoch(BATCH)
        for bp, bp2 in zip(plan, plan2):
            np.testing.assert_array_equal(bp.sample_ids, bp2.sample_ids)
        # Replanning lands the RNG exactly where the original planner did.
        assert (
            replay._rng.bit_generator.state == reader._rng.bit_generator.state
        )

    def test_materialize_is_rng_free(self):
        reader = make_reader()
        plan = reader.plan_epoch(BATCH)
        state = reader._rng.bit_generator.state
        for bp in plan:
            reader.materialize(bp)
        assert reader._rng.bit_generator.state == state

    def test_empty_epoch_raises(self):
        reader = make_reader(n=4)
        with pytest.raises(ValueError):
            reader.plan_epoch(8)  # drop_last leaves zero steps

    def test_epoch_generator_is_plan_then_materialize(self):
        via_epoch = list(make_reader(seed=5).epoch(BATCH))
        reader = make_reader(seed=5)
        plan = reader.plan_epoch(BATCH)
        via_plan = [reader.materialize(bp) for bp in plan]
        assert_batches_equal(via_epoch, via_plan)


    @pytest.mark.parametrize("drop_last", [True, False])
    @pytest.mark.parametrize("batch", [8, 7, 64, 50])
    def test_lazy_batches_equal_the_eager_tuple(self, batch, drop_last):
        """The plan cuts a BatchPlan per access; what comes out is what the
        eagerly built tuple held."""
        from repro.datastore.reader import BatchPlan

        reader = make_reader(seed=4)
        reader.sample_ids = reader.sample_ids[::-1].copy()  # ids != positions
        plan = reader.plan_epoch(batch, drop_last)
        perm = np.random.default_rng(4).permutation(N)
        steps = reader.steps_per_epoch(batch, drop_last)
        eager = tuple(
            BatchPlan(
                epoch_index=0,
                step_index=s,
                sample_ids=reader.sample_ids[perm[s * batch : (s + 1) * batch]],
                is_last=(s == steps - 1),
            )
            for s in range(steps)
        )
        assert len(plan) == len(eager) == len(plan.batches)
        for got in (plan.batches, tuple(plan), [plan[s] for s in range(steps)]):
            for a, b in zip(got, eager, strict=True):
                assert (a.epoch_index, a.step_index, a.is_last) == (
                    b.epoch_index, b.step_index, b.is_last
                )
                assert a.sample_ids.dtype == b.sample_ids.dtype
                np.testing.assert_array_equal(a.sample_ids, b.sample_ids)
        with pytest.raises(IndexError):
            plan[steps]
        with pytest.raises(IndexError):
            plan[-1]


class TestEpochsCompleted:
    def test_generator_uses_delivery_semantics(self):
        reader = make_reader()
        gen = reader.epoch(BATCH)
        for _ in range(N // BATCH - 1):
            next(gen)
        assert reader.epochs_completed == 0  # last batch not delivered yet
        next(gen)
        assert reader.epochs_completed == 1

    def test_abandoned_epoch_never_counts(self):
        reader = make_reader()
        gen = reader.epoch(BATCH)
        next(gen)
        gen.close()
        assert reader.epochs_completed == 0
        for _ in reader.epoch(BATCH):
            pass
        assert reader.epochs_completed == 1

    @pytest.mark.parametrize("depth", [0, 2])
    def test_pipeline_uses_delivery_semantics(self, depth):
        pipeline = build_pipeline(make_reader(), BATCH, prefetch_depth=depth)
        try:
            steps = N // BATCH
            for _ in range(steps - 1):
                pipeline.next_batch()
            assert pipeline.reader.epochs_completed == 0
            pipeline.next_batch()
            assert pipeline.reader.epochs_completed == 1
            pipeline.next_batch()  # rolls into epoch 1
            assert pipeline.reader.epochs_completed == 1
        finally:
            pipeline.close()


class TestBatchPipeline:
    def test_matches_epoch_generator_across_epochs(self):
        steps = 2 * (N // BATCH) + 3  # 2.5 epochs
        pipeline = BatchPipeline(make_reader(seed=11), BATCH)
        via_pipeline = [pipeline.next_batch() for _ in range(steps)]
        reader = make_reader(seed=11)
        via_epoch = []
        while len(via_epoch) < steps:
            for mb in reader.epoch(BATCH):
                via_epoch.append(mb)
                if len(via_epoch) == steps:
                    break
        assert_batches_equal(via_pipeline, via_epoch)
        assert pipeline.reader.epochs_completed == reader.epochs_completed

    def test_state_restore_roundtrip_mid_epoch(self):
        pipeline = BatchPipeline(make_reader(seed=7), BATCH)
        for _ in range(5):
            pipeline.next_batch()
        state = pipeline.state()
        assert state["next_step"] == 5
        resumed = BatchPipeline(make_reader(seed=1234), BATCH)
        resumed.restore(state)
        for _ in range(6):  # crosses the epoch boundary
            assert_batches_equal(
                [pipeline.next_batch()], [resumed.next_batch()]
            )
        assert resumed.reader.epochs_completed == pipeline.reader.epochs_completed

    def test_state_is_json_serializable(self):
        import json

        pipeline = BatchPipeline(make_reader(), BATCH)
        pipeline.next_batch()
        assert json.loads(json.dumps(pipeline.state())) == pipeline.state()

    def test_restore_after_consumption_raises(self):
        pipeline = BatchPipeline(make_reader(), BATCH)
        state = pipeline.state()
        pipeline.next_batch()
        with pytest.raises(RuntimeError, match="fresh pipeline"):
            pipeline.restore(state)

    def test_restore_validates_batch_shape(self):
        state = BatchPipeline(make_reader(), BATCH).state()
        other = BatchPipeline(make_reader(), BATCH * 2)
        with pytest.raises(ValueError, match="batch shape"):
            other.restore(state)

    def test_build_pipeline_dispatch(self):
        assert type(build_pipeline(make_reader(), BATCH)) is BatchPipeline
        prefetching = build_pipeline(make_reader(), BATCH, prefetch_depth=3)
        assert isinstance(prefetching, PrefetchingReader)
        assert prefetching.depth == 3
        with pytest.raises(ValueError):
            build_pipeline(make_reader(), BATCH, prefetch_depth=-1)


    @pytest.mark.parametrize("depth", [0, 2])
    def test_plans_are_drawn_on_use_and_once_per_resume(self, depth):
        """A fresh pipeline has drawn nothing; a suspend -> resume costs
        exactly one plan and leaves the reader RNG where an uninterrupted
        run has it."""

        def counting_reader():
            reader = make_reader(seed=9)
            reader.plans = 0
            plan_epoch = reader.plan_epoch

            def counted(*args, **kwargs):
                reader.plans += 1
                return plan_epoch(*args, **kwargs)

            reader.plan_epoch = counted
            return reader

        straight = counting_reader()
        rng_at_birth = straight._rng.bit_generator.state
        pipe = build_pipeline(straight, BATCH, prefetch_depth=depth)
        assert straight.plans == 0
        assert straight._rng.bit_generator.state == rng_at_birth
        want = [pipe.next_batch() for _ in range(3)]
        state = pipe.state()
        pipe.close()  # suspend: the cursor is all that survives
        # (a prefetch thread may have planned ahead of the delivered epoch)
        assert straight.plans >= 1 and state["epoch_index"] == 0

        resumed = counting_reader()
        pipe = build_pipeline(resumed, BATCH, prefetch_depth=depth)
        assert resumed.plans == 0
        pipe.restore(state)
        assert resumed.plans == 1
        assert resumed._rng.bit_generator.state == make_replanned_rng(state)
        got = [pipe.next_batch() for _ in range(5)]  # rest of epoch 0
        pipe.close()
        if depth == 0:
            assert resumed.plans == 1

        reference = build_pipeline(make_reader(seed=9), BATCH)
        assert_batches_equal(
            want + got, [reference.next_batch() for _ in range(8)]
        )

    def test_state_of_an_unused_pipeline_is_the_first_plan(self):
        reader = make_reader(seed=2)
        rng_at_birth = reader._rng.bit_generator.state
        state = build_pipeline(reader, BATCH).state()
        assert (state["epoch_index"], state["next_step"]) == (0, 0)
        assert state["epoch_rng_state"] == rng_at_birth


class TestPrefetchingReader:
    @pytest.mark.parametrize("depth", [1, 4])
    def test_identical_to_synchronous(self, depth):
        steps = 2 * (N // BATCH) + 3
        sync = BatchPipeline(make_reader(seed=21), BATCH)
        prefetching = PrefetchingReader(make_reader(seed=21), BATCH, depth=depth)
        try:
            assert_batches_equal(
                [sync.next_batch() for _ in range(steps)],
                [prefetching.next_batch() for _ in range(steps)],
            )
        finally:
            prefetching.close()

    def test_store_side_effects_identical_to_synchronous(self):
        """The producer materializes in plan order, so dynamic-mode store
        caching and file traffic match the synchronous path exactly."""

        def store_setup(seed):
            fs = SimulatedFilesystem()
            n = 60
            fields = {"x": np.arange(n, dtype=np.float32).reshape(n, 1)}
            paths = write_bundles(fs, fields, samples_per_bundle=10)
            store = DistributedDataStore(2, bytes_per_rank=10**6)
            reader = StoreReader(
                fs, paths, 10, np.arange(n),
                np.random.default_rng(seed), store, "dynamic",
            )
            return fs, store, reader

        fs_a, store_a, reader_a = store_setup(9)
        fs_b, store_b, reader_b = store_setup(9)
        sync = BatchPipeline(reader_a, 10)
        prefetching = PrefetchingReader(reader_b, 10, depth=2)
        try:
            assert_batches_equal(
                [sync.next_batch() for _ in range(9)],  # 1.5 epochs
                [prefetching.next_batch() for _ in range(9)],
            )
        finally:
            prefetching.close()
        assert store_a.num_cached == store_b.num_cached
        assert fs_a.stats.opens == fs_b.stats.opens
        assert fs_a.stats.bytes_read == fs_b.stats.bytes_read

    def test_queue_is_bounded_by_depth(self):
        pipeline = PrefetchingReader(make_reader(), BATCH, depth=2)
        try:
            pipeline.next_batch()
            deadline = time.time() + 5.0
            while pipeline.queued_batches < 2 and time.time() < deadline:
                time.sleep(0.005)
            assert pipeline.queued_batches == 2  # full, producer blocked
        finally:
            pipeline.close()

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="depth"):
            PrefetchingReader(make_reader(), BATCH, depth=0)

    def test_close_joins_producer_and_is_idempotent(self):
        pipeline = PrefetchingReader(make_reader(), BATCH, depth=2)
        pipeline.next_batch()
        thread = pipeline._thread
        pipeline.close()
        assert pipeline._thread is None
        assert thread is not None and not thread.is_alive()
        pipeline.close()

    def test_producer_error_propagates(self):
        class Exploding(ArrayReader):
            def _fetch(self, ids, plan=None):
                raise OSError("disk on fire")

        reader = Exploding(
            {"x": np.zeros((N, 1), dtype=np.float32)},
            np.arange(N),
            np.random.default_rng(0),
        )
        pipeline = PrefetchingReader(reader, BATCH, depth=2)
        try:
            with pytest.raises(RuntimeError, match="prefetch pipeline failed"):
                pipeline.next_batch()
        finally:
            pipeline.close()

    def test_cursor_tracks_delivery_not_prefetch(self):
        pipeline = PrefetchingReader(make_reader(), BATCH, depth=4)
        try:
            for _ in range(3):
                pipeline.next_batch()
            # The producer has prefetched ahead, but state() is the
            # consumer's cursor: resuming replays from the delivery point.
            assert pipeline.state()["next_step"] == 3
        finally:
            pipeline.close()

    def test_restore_after_start_raises(self):
        pipeline = PrefetchingReader(make_reader(), BATCH, depth=2)
        state = pipeline.state()
        pipeline.next_batch()
        try:
            with pytest.raises(RuntimeError, match="before the first batch"):
                pipeline.restore(state)
        finally:
            pipeline.close()


def _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2):
    spec = dataclasses.replace(tiny_spec, k=k)
    return build_population(
        tiny_dataset,
        np.arange(tiny_dataset.n_samples - 64),
        RngFactory(77).child("pipeline"),
        spec,
        tiny_autoencoder,
    )


def _run_ltfb(tiny_dataset, tiny_spec, tiny_autoencoder, backend):
    trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
    val_ids = np.arange(tiny_dataset.n_samples - 64, tiny_dataset.n_samples)
    driver = LtfbDriver(
        trainers,
        np.random.default_rng(7),
        LtfbConfig(steps_per_round=3, rounds=2),
        eval_batch={k: v[val_ids] for k, v in tiny_dataset.fields.items()},
        backend=backend,
    )
    history = driver.run()
    weights = {
        t.name: {k: v.copy() for k, v in t.generator_state().items()}
        for t in driver.trainers
    }
    return history, weights


@pytest.fixture(scope="module")
def depth0_serial_run(tiny_dataset, tiny_spec, tiny_autoencoder):
    return _run_ltfb(
        tiny_dataset,
        tiny_spec,
        tiny_autoencoder,
        resolve_backend("serial", prefetch_depth=0),
    )


class TestDeterminismAcrossBackendsAndDepths:
    """The acceptance matrix: backend x prefetch depth, all bit-identical."""

    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_history_bit_identical(
        self,
        backend_name,
        depth,
        depth0_serial_run,
        tiny_dataset,
        tiny_spec,
        tiny_autoencoder,
    ):
        if backend_name == "serial" and depth == 0:
            pytest.skip("is the reference run")
        ref_history, ref_weights = depth0_serial_run
        backend = resolve_backend(
            backend_name, max_workers=2, prefetch_depth=depth
        )
        history, weights = _run_ltfb(
            tiny_dataset, tiny_spec, tiny_autoencoder, backend
        )
        assert history.train_losses == ref_history.train_losses
        assert history.eval_series == ref_history.eval_series
        assert history.tournaments == ref_history.tournaments
        assert history.exchange_bytes == ref_history.exchange_bytes
        for name, ref in ref_weights.items():
            for key, arr in ref.items():
                np.testing.assert_array_equal(arr, weights[name][key])

    def test_backend_release_restores_depth_and_stops_threads(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        import threading

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        backend = resolve_backend("serial", prefetch_depth=3)
        backend.bind(trainers, TelemetryHub())
        assert all(t.prefetch_depth == 3 for t in trainers)
        for t in trainers:
            t.train_steps(1)  # starts a prefetching pipeline
        backend.release()
        assert all(t.prefetch_depth == 0 for t in trainers)
        assert not any(
            th.name.startswith("repro-prefetch")
            for th in threading.enumerate()
            if th.is_alive()
        )


class TestCheckpointMidEpochResume:
    def test_resume_with_nonempty_prefetch_queue(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainer = _population(tiny_dataset, tiny_spec, tiny_autoencoder)[0]
        trainer.set_prefetch_depth(4)
        trainer.train_steps(2)  # mid-epoch (14 steps per epoch)
        pipeline = trainer._pipeline
        deadline = time.time() + 5.0
        while pipeline.queued_batches == 0 and time.time() < deadline:
            time.sleep(0.005)
        assert pipeline.queued_batches > 0  # checkpoint under live prefetch
        payload = trainer_checkpoint(trainer)
        ref_losses = trainer.train_steps(4)

        resumed = _population(tiny_dataset, tiny_spec, tiny_autoencoder)[0]
        restore_trainer(resumed, payload)
        assert resumed.prefetch_depth == 4
        losses = resumed.train_steps(4)
        assert losses == ref_losses
        ref_weights = trainer.generator_state()
        for key, arr in resumed.generator_state().items():
            np.testing.assert_array_equal(arr, ref_weights[key])
        trainer.set_prefetch_depth(0)  # fold pipelines, stop threads
        resumed.set_prefetch_depth(0)

    def test_checkpoint_rng_state_is_plan_cursor_state(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        """With a prefetch thread planning ahead, the checkpoint must carry
        the in-flight epoch's pre-plan RNG state, not the live generator's
        (which the producer may have advanced)."""
        trainer = _population(tiny_dataset, tiny_spec, tiny_autoencoder)[0]
        trainer.set_prefetch_depth(4)
        steps_per_epoch = trainer.reader.num_samples // trainer.config.batch_size
        trainer.train_steps(steps_per_epoch - 1)
        # Producer has rolled into the next epoch's plan by now (queue
        # depth 4 > 1 remaining step), advancing the live RNG.
        cursor = trainer.data_state()
        assert cursor is not None
        from repro.core.checkpoint import _reader_meta

        meta = _reader_meta(trainer)
        assert meta["rng_state"] == cursor["epoch_rng_state"]
        trainer.set_prefetch_depth(0)


class TestPipelineTelemetry:
    def test_sync_pipeline_emits_fetch_stall_only(self):
        hub = TelemetryHub()
        metrics = MetricsCollector()
        hub.subscribe(metrics)
        pipeline = build_pipeline(make_reader(), BATCH)
        pipeline.telemetry = hub
        pipeline.context = {"trainer": "t0", "backend": "serial", "worker": 0}
        for _ in range(4):
            pipeline.next_batch()
        assert metrics.stall.count == 4
        assert metrics.registry["repro_prefetch_fills_total"].value == 0
        # Synchronous: the stall is the materialization, nothing hidden.
        assert metrics.fetch_overlap.value == 0.0
        stall_series = metrics.registry.series("repro_worker_stall_seconds_total")
        assert [dict(s.labels) for s in stall_series] == [
            {"backend": "serial", "worker": "0"}
        ]

    def test_prefetching_pipeline_emits_fills(self):
        hub = TelemetryHub()
        metrics = MetricsCollector()
        hub.subscribe(metrics)
        pipeline = build_pipeline(make_reader(), BATCH, prefetch_depth=2)
        pipeline.telemetry = hub
        try:
            for _ in range(4):
                pipeline.next_batch()
        finally:
            pipeline.close()
        fills = metrics.registry["repro_prefetch_fills_total"].value
        slots = metrics.registry["repro_prefetch_fill_slots_total"].value
        assert metrics.stall.count == 4
        assert fills >= 4
        assert 0.0 <= slots / fills <= 2.0

    def test_trace_report_renders_data_pipeline_section(
        self, tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        from repro.telemetry.report import render_trace_report

        trace = tmp_path / "trace.jsonl"
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder)
        driver = LtfbDriver(
            trainers,
            np.random.default_rng(7),
            LtfbConfig(steps_per_round=2, rounds=1),
            backend=resolve_backend("serial", prefetch_depth=2),
        )
        driver.run(callbacks=[JsonlTraceWriter(trace)])
        text = render_trace_report(trace)
        assert "data pipeline:" in text
        assert "fetch stalls:" in text
        assert "prefetch fills:" in text
        assert "per-worker stall vs. overlap:" in text
        assert "serial/worker0" in text
