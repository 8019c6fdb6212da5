"""Tests for the streaming ingestion plane: channel flow control and
retention, the growing sample universe and its snapshotting reader,
store admission, the poll/replay cursor, and mid-epoch checkpoint
determinism while the universe grows."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.datastore.pipeline import build_pipeline
from repro.datastore.store import DistributedDataStore
from repro.ingest.channel import (
    IngestChannel,
    RecencyRetention,
    ReservoirRetention,
    StreamedSample,
    resolve_retention,
)
from repro.ingest.producer import StreamingCampaign
from repro.ingest.source import IngestReplayError, StreamingSource
from repro.ingest.universe import SampleUniverse, StreamReader
from repro.jag.dataset import JagDatasetConfig, JagSchema
from repro.workflow.engine import (
    EnsembleWorkflow,
    WorkerPoolSpec,
    WorkflowConfigError,
)

SCHEMA = JagSchema(image_size=8, views=2, channels=2)


def sample(sid: int, produced_at: float = 0.0, value: float | None = None):
    v = float(sid) if value is None else value
    return StreamedSample(
        sample_id=sid,
        fields={"x": np.full(4, v, dtype=np.float32)},
        produced_at=produced_at,
        task_id=sid,
    )


class TestIngestChannel:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            IngestChannel(capacity=0)
        with pytest.raises(ValueError):
            IngestChannel(capacity=4, high_watermark=0.3, low_watermark=0.6)
        with pytest.raises(ValueError):
            IngestChannel(capacity=4, max_age_s=0.0)
        with pytest.raises(ValueError):
            resolve_retention("freshest")

    def test_watermark_hysteresis(self):
        ch = IngestChannel(capacity=10, high_watermark=0.8, low_watermark=0.3)
        for sid in range(8):
            ch.publish(sample(sid))
        assert ch.paused  # reached 8 = high watermark
        ch.drain(4)  # depth 4 > low watermark: still paused
        assert ch.paused
        ch.drain(1)  # depth 3 = low watermark: resumes
        assert not ch.paused

    def test_recency_retention_drops_oldest(self):
        ch = IngestChannel(capacity=3, retention="recency", high_watermark=1.0)
        for sid in range(5):
            assert ch.publish(sample(sid))
        resident = [s.sample_id for s in ch]
        assert resident == [2, 3, 4]
        assert ch.stats.retention_drops == 2
        assert ch.stats.published == 5 and ch.stats.accepted == 5

    def test_reservoir_retention_is_unbiased_and_deterministic(self):
        def offered_stream(seed):
            ch = IngestChannel(
                capacity=16, retention="reservoir", high_watermark=1.0, seed=seed
            )
            for sid in range(400):
                ch.publish(sample(sid))
            return [s.sample_id for s in ch]

        a, b = offered_stream(7), offered_stream(7)
        assert a == b  # policy owns its RNG: pure function of publishes
        assert offered_stream(8) != a
        # Unbiased: late ids must not dominate (recency would keep 384+).
        assert min(a) < 100
        assert isinstance(ch := IngestChannel(4).retention, RecencyRetention)
        assert isinstance(
            resolve_retention("reservoir", seed=1), ReservoirRetention
        )

    def test_stale_eviction_and_cursor(self):
        ch = IngestChannel(capacity=8, max_age_s=10.0)
        ch.publish(sample(0, produced_at=0.0))
        ch.publish(sample(1, produced_at=5.0))
        ch.publish(sample(2, produced_at=12.0))
        assert ch.evict_stale(now_s=15.0) == 1  # sample 0 aged out
        assert ch.stats.stale_evictions == 1 and ch.stats.evicted == 1
        drained = ch.drain()
        assert [s.sample_id for s in drained] == [1, 2]
        assert ch.cursor == 2  # evictions never advance the drain cursor
        assert ch.producer_lag == 1  # published 3, drained 2


class TestSampleUniverse:
    def test_versioned_snapshots_are_immutable_prefixes(self):
        u = SampleUniverse()
        assert u.version == 0 and u.size == 0
        u.admit([sample(0), sample(1)])
        u.admit([sample(2)])
        assert u.version == 2 and u.size == 3
        assert u.snapshot_ids(1).tolist() == [0, 1]
        assert u.snapshot_ids(2).tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            u.snapshot_ids(3)

    def test_admit_is_idempotent_and_version_only_bumps_on_growth(self):
        u = SampleUniverse()
        assert u.admit([sample(0)]) == 1
        assert u.admit([sample(0)]) == 0  # duplicate: no new version
        assert u.version == 1
        assert u.admit([sample(0), sample(1)]) == 1
        assert u.version == 2

    def test_batch_and_warm(self):
        u = SampleUniverse()
        u.admit([sample(i) for i in range(4)])
        batch = u.batch([3, 1])
        assert batch["x"].shape == (2, 4)
        assert batch["x"][0, 0] == 3.0 and batch["x"][1, 0] == 1.0
        store = DistributedDataStore(2, bytes_per_rank=10**6)
        assert u.warm(store) == 4
        assert u.warm(store) == 0  # idempotent through the store


class TestStreamReader:
    def test_refuses_empty_universe(self):
        with pytest.raises(ValueError):
            StreamReader(SampleUniverse(), np.random.default_rng(0))

    def test_plan_freezes_current_snapshot(self):
        u = SampleUniverse()
        u.admit([sample(i) for i in range(8)])
        r = StreamReader(u, np.random.default_rng(0))
        plan1 = r.plan_epoch(batch_size=4)
        assert plan1.universe_version == 1
        u.admit([sample(8 + i) for i in range(4)])
        r.ingest_admit([], version=None)  # no-op growth path
        plan2 = r.plan_epoch(batch_size=4)
        assert plan2.universe_version == 2
        assert len(r.sample_ids) == 12
        # plan1's batches only ever index the 8-sample snapshot.
        assert max(i for bp in plan1.batches for i in bp.sample_ids) < 8

    def test_begin_replay_pins_one_plan(self):
        u = SampleUniverse()
        u.admit([sample(i) for i in range(8)])
        r = StreamReader(u, np.random.default_rng(0))
        u.admit([sample(8 + i) for i in range(8)])
        r.ingest_admit([], version=None)
        r.begin_replay(1)
        plan = r.plan_epoch(batch_size=4)
        assert plan.universe_version == 1 and r.frozen_version == 1
        plan = r.plan_epoch(batch_size=4)  # pin was one-shot
        assert plan.universe_version == 2

    def test_version_cross_check(self):
        u = SampleUniverse()
        u.admit([sample(0)])
        r = StreamReader(u, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="universe diverged"):
            r.ingest_admit([sample(1)], version=5)

    def test_store_fallback_for_evicted_samples(self):
        u = SampleUniverse()
        u.admit([sample(i) for i in range(3)])
        nbytes = sample(0).nbytes
        store = DistributedDataStore(
            1, bytes_per_rank=2 * nbytes, evicting=True
        )
        r = StreamReader(u, np.random.default_rng(0), store=store)
        u.warm(store)  # admits 3 into budget for 2: sample 0 evicted
        assert 0 not in store and store.stats.evictions == 1
        batch = r._fetch(np.asarray([0, 2]))
        assert batch["x"][0, 0] == 0.0 and batch["x"][1, 0] == 2.0
        assert 0 not in store  # fallbacks are not re-cached


class TestStoreAdmission:
    def test_round_robin_placement(self):
        store = DistributedDataStore(3, bytes_per_rank=10**6)
        ranks = [store.admit(sid, sample(sid).fields) for sid in range(6)]
        assert ranks == [0, 1, 2, 0, 1, 2]
        assert store.stats.admitted == 6

    def test_admit_is_idempotent_and_can_force_rank(self):
        store = DistributedDataStore(2, bytes_per_rank=10**6)
        assert store.admit(7, sample(7).fields, rank=1) == 1
        assert store.admit(7, sample(7).fields) == 1  # already placed
        assert store.stats.admitted == 1

    def test_eviction_accounting_shared_with_cache(self):
        nbytes = sample(0).nbytes
        store = DistributedDataStore(1, bytes_per_rank=2 * nbytes, evicting=True)
        for sid in range(4):
            store.admit(sid, sample(sid).fields)
        assert store.stats.evictions == 2
        assert store.stats.admitted == 4


class TestWorkflowValidation:
    def test_worker_pool_rejects_nonpositive_counts(self):
        with pytest.raises(WorkflowConfigError):
            WorkerPoolSpec(num_workers=0)
        with pytest.raises(WorkflowConfigError):
            WorkerPoolSpec(num_workers=-4)
        with pytest.raises(WorkflowConfigError):
            WorkerPoolSpec(tasks_per_job=0)
        assert issubclass(WorkflowConfigError, ValueError)

    def test_run_rejects_empty_and_negative_task_times(self):
        wf = EnsembleWorkflow(WorkerPoolSpec(num_workers=2))
        with pytest.raises(WorkflowConfigError):
            wf.run([])
        with pytest.raises(WorkflowConfigError):
            wf.run([1.0, -1.0])

    def test_iter_results_streams_in_completion_order(self):
        wf = EnsembleWorkflow(
            WorkerPoolSpec(num_workers=2, tasks_per_job=2),
            task_fn=lambda tid: tid * 10,
        )
        times = [3.0, 1.0, 2.0, 1.0, 5.0]
        streamed = list(wf.iter_results(times))
        ends = [(r.end_time, r.task_id) for r in streamed]
        assert ends == sorted(ends)
        assert sorted(r.task_id for r in streamed) == list(range(5))
        assert all(r.output == r.task_id * 10 for r in streamed)
        batch, _ = EnsembleWorkflow(
            WorkerPoolSpec(num_workers=2, tasks_per_job=2)
        ).run(times)
        # Same schedule, different order: run() keeps task order.
        assert {(r.task_id, r.end_time) for r in streamed} == {
            (r.task_id, r.end_time) for r in batch
        }


@pytest.fixture(scope="module")
def campaign_parts():
    """A small live campaign wired to a channel/universe/source."""

    def build(n=96, capacity=32, max_age_s=None, tasks_per_poll=24):
        campaign = StreamingCampaign(
            JagDatasetConfig(n_samples=n, schema=SCHEMA, seed=5),
            pool=WorkerPoolSpec(num_workers=4, tasks_per_job=4),
            task_seconds=60.0,
            calibration=16,
        )
        channel = IngestChannel(
            capacity=capacity,
            high_watermark=0.75,
            low_watermark=0.25,
            max_age_s=max_age_s,
        )
        universe = SampleUniverse()
        return campaign, channel, universe, StreamingSource(
            campaign, channel, universe, tasks_per_poll=tasks_per_poll
        )

    return build


class TestStreamingCampaign:
    def test_pump_honors_watermark_pause(self, campaign_parts):
        campaign, channel, _, _ = campaign_parts(capacity=8)
        published = campaign.pump(channel, max_tasks=64)
        assert channel.paused
        assert published == channel.depth  # stopped at the watermark,
        assert channel.stats.retention_drops == 0  # never displaced work
        channel.drain()
        assert campaign.pump(channel, max_tasks=4) == 4

    def test_publish_sequence_is_deterministic(self, campaign_parts):
        ids = []
        for _ in range(2):
            campaign, channel, _, _ = campaign_parts()
            campaign.pump(channel, max_tasks=16)
            ids.append([s.sample_id for s in channel.drain()])
        assert ids[0] == ids[1]

    def test_calibration_fields_shapes(self, campaign_parts):
        campaign, _, _, _ = campaign_parts()
        cal = campaign.calibration_fields()
        assert cal["params"].shape[0] == 16
        assert set(cal) == {"params", "scalars", "images"}


class _RecordingChannel(IngestChannel):
    """Keeps every sample offered, in publish order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.offered = []

    def publish(self, s):
        self.offered.append(s)
        return super().publish(s)


class _OneTaskPublisher:
    """The pump the block pump replaced, kept as the reference: pull one
    completion, simulate that one row, publish it, look at the pause."""

    def __init__(self, campaign: StreamingCampaign):
        self.campaign = campaign
        times = [campaign.task_seconds] * campaign.config.n_samples
        self._iter = EnsembleWorkflow(campaign.pool).iter_results(times)
        self.produced, self.exhausted, self.clock_s = 0, False, 0.0

    def pump(self, channel, max_tasks):
        if self.exhausted:
            return 0
        published = 0
        while published < max_tasks and not channel.paused:
            result = next(self._iter, None)
            if result is None:
                self.exhausted = True
                break
            self.clock_s = max(self.clock_s, result.end_time)
            row = self.campaign.task_sample([result.task_id])
            channel.publish(
                StreamedSample(
                    sample_id=result.task_id,
                    fields={k: v[0] for k, v in row.items()},
                    produced_at=result.end_time,
                    task_id=result.task_id,
                )
            )
            self.produced += 1
            published += 1
        return published


def _assert_same_publishes(got, want):
    assert [(s.sample_id, s.task_id, s.produced_at) for s in got] == [
        (s.sample_id, s.task_id, s.produced_at) for s in want
    ]
    for a, b in zip(got, want):
        assert sorted(a.fields) == sorted(b.fields)
        for name in a.fields:
            assert a.fields[name].dtype == b.fields[name].dtype
            np.testing.assert_array_equal(a.fields[name], b.fields[name])


class TestBlockPumpEquivalence:
    """Simulating by the block changes when rows are computed, never what
    is published: same samples, stamps and counters as one task at a
    time, after every step of the same pump/evict/drain script."""

    def _run(self, campaign_parts, n, script, **channel_kwargs):
        def channel():
            return _RecordingChannel(
                high_watermark=0.75, low_watermark=0.25, **channel_kwargs
            )

        block, ch_a = campaign_parts(n=n)[0], channel()
        single, ch_b = _OneTaskPublisher(campaign_parts(n=n)[0]), channel()
        simulate, block.blocks = block.task_sample, []

        def task_sample(task_ids):
            block.blocks.append(len(task_ids))
            return simulate(task_ids)

        block.task_sample = task_sample
        for step, op in enumerate(script):
            if op == "drain":
                assert len(ch_a.drain()) == len(ch_b.drain())
            elif op == "evict":
                assert ch_a.evict_stale(block.clock_s) == ch_b.evict_stale(
                    single.clock_s
                )
            else:
                assert block.pump(ch_a, op) == single.pump(ch_b, op), step
            assert (block.produced, block.clock_s, block.exhausted) == (
                single.produced, single.clock_s, single.exhausted
            ), step
            assert ch_a.paused == ch_b.paused and ch_a.depth == ch_b.depth
        _assert_same_publishes(ch_a.offered, ch_b.offered)
        assert vars(ch_a.stats) == vars(ch_b.stats)
        # One simulator call per pump at most, never one per task.
        assert len(block.blocks) <= sum(op not in ("drain", "evict") for op in script)
        return block, ch_a

    def test_pause_cuts_a_block_short(self, campaign_parts):
        # The default StreamingSpec geometry: capacity 64, watermark 0.75,
        # so a 64-task pump is cut at 48 and 16 simulated rows wait.
        script = [64, 64, "drain", 64, 8, "drain", 8, 64, "drain", 64]
        block, channel = self._run(campaign_parts, 400, script, capacity=64)
        assert not block.exhausted and len(channel.offered) == 192
        # 64 rows were simulated for the first pump, 48 published: the
        # other 16 waited, and at most one pump's budget ever does.
        assert block.blocks[0] == 64
        assert 0 < sum(block.blocks) - block.produced <= 64

    def test_with_max_age_eviction(self, campaign_parts):
        script = [24, "evict", "drain", 24, 24, "evict", "drain", 5, "evict", 24]
        _, channel = self._run(
            campaign_parts, 200, script, capacity=32, max_age_s=90.0
        )
        assert channel.stats.stale_evictions > 0

    def test_design_not_a_multiple_of_the_block(self, campaign_parts):
        script = [32, "drain"] * 5
        block, channel = self._run(campaign_parts, 100, script, capacity=64)
        assert block.exhausted and len(channel.offered) == 100
        assert block.pump(channel, 32) == 0

    def test_across_source_replay(self, campaign_parts):
        def beats(source, n):
            for _ in range(n):
                source.poll()

        def recording(parts):
            campaign, channel, universe, _ = parts
            rec = _RecordingChannel(
                channel.capacity, high_watermark=0.75, low_watermark=0.25,
                max_age_s=channel.max_age_s,
            )
            return rec, StreamingSource(campaign, rec, universe, tasks_per_poll=40)

        geometry = dict(n=400, capacity=32, max_age_s=600.0)
        ch_a, source_a = recording(campaign_parts(**geometry))
        beats(source_a, 4)
        checkpoint = source_a.state()
        beats(source_a, 3)

        ch_b, source_b = recording(campaign_parts(**geometry))
        source_b.replay(checkpoint)
        beats(source_b, 3)
        _assert_same_publishes(ch_b.offered, ch_a.offered)

        # ... and both are what one task at a time publishes.
        single = _OneTaskPublisher(source_a.campaign)
        ch_c = _RecordingChannel(
            32, high_watermark=0.75, low_watermark=0.25, max_age_s=600.0
        )
        for _ in range(7):
            single.pump(ch_c, 40)
            ch_c.evict_stale(single.clock_s)
            ch_c.drain()
        _assert_same_publishes(ch_a.offered, ch_c.offered)
        assert source_a.campaign.clock_s == single.clock_s


class TestStreamingSource:
    def test_prime_then_poll_grows_universe(self, campaign_parts):
        _, channel, universe, source = campaign_parts()
        source.prime(24)
        assert universe.size >= 24
        v = universe.version
        admitted = source.poll()
        assert admitted > 0 and universe.version == v + 1

    def test_paused_reports_a_pump_held_back(self, campaign_parts):
        """The ``ingest`` event's ``paused`` is the backpressure signal:
        true only when the watermark pause stopped the pump short of its
        per-poll budget, not when it engaged on the budget's last sample."""
        from repro.telemetry import TelemetryHub

        def first_poll(**geometry):
            _, channel, _, source = campaign_parts(**geometry)
            polls = []
            hub = TelemetryHub()
            hub.subscribe(
                SimpleNamespace(handle=lambda e: polls.append(e.payload))
            )
            source.telemetry = hub
            source.poll()
            return polls[0], channel

        # Budget 24 == watermark (0.75 x 32): the full budget published.
        payload, channel = first_poll()
        assert channel.stats.published == 24
        assert payload["paused"] is False
        # Watermark 6 < budget 24: the pause cut the pump at 6 samples.
        payload, channel = first_poll(capacity=8)
        assert channel.stats.published == 6
        assert payload["paused"] is True

    def test_prime_raises_when_campaign_too_small(self, campaign_parts):
        _, _, _, source = campaign_parts(n=8)
        with pytest.raises(RuntimeError, match="could not prime"):
            source.prime(64)

    def test_poll_suspends_pipelines_and_notifies_backend(self, campaign_parts):
        _, _, universe, source = campaign_parts()
        source.prime(24)

        class FakeTrainer:
            def __init__(self):
                self.reader = StreamReader(universe, np.random.default_rng(0))
                self.suspended = 0

            def suspend_data_pipeline(self):
                self.suspended += 1

        class FakeBackend:
            calls = []

            def ingest_admit(self, samples, version):
                self.calls.append((len(list(samples)), version))

        t, b = FakeTrainer(), FakeBackend()
        admitted = source.poll(trainers=[t], backend=b)
        assert admitted > 0
        assert t.suspended == 1
        assert len(t.reader.sample_ids) < universe.size  # not yet re-planned
        assert b.calls == [(admitted, universe.version)]

    def test_replay_reproduces_cursor(self, campaign_parts):
        _, _, _, source = campaign_parts()
        source.prime(24)
        source.poll()
        source.poll()
        state = source.state()

        _, _, universe_b, source_b = campaign_parts()
        source_b.replay(state)
        assert source_b.state() == state
        assert universe_b.version == state["universe_version"]

    def test_replay_resumes_a_partially_polled_source(self, campaign_parts):
        _, _, _, source = campaign_parts()
        source.prime(24)
        source.poll()
        state = source.state()

        _, _, _, source_b = campaign_parts()
        source_b.prime(24)  # identical priming already happened
        source_b.replay(state)
        assert source_b.state() == state

    def test_replay_rejects_overrun_and_divergence(self, campaign_parts):
        _, _, _, source = campaign_parts()
        source.prime(24)
        state = source.state()
        source.poll()
        with pytest.raises(IngestReplayError, match="already polled"):
            source.replay(state)

        _, _, _, diverged = campaign_parts(tasks_per_poll=8)
        with pytest.raises(IngestReplayError, match="diverged"):
            diverged.replay(state)


class TestMidEpochCheckpointWithGrowth:
    """Satellite: a plan cursor checkpointed mid-epoch must replay the
    identical batches even though the universe grew after the
    checkpoint — at any prefetch depth."""

    def _batches(self, pipeline, n):
        return [pipeline.next_batch().feeds["x"].copy() for _ in range(n)]

    @pytest.mark.parametrize("depth", [0, 2])
    def test_resume_is_bit_identical_across_growth(self, depth):
        def fresh_reader():
            u = SampleUniverse()
            u.admit([sample(i) for i in range(16)])
            return u, StreamReader(u, np.random.default_rng(42))

        growth = [sample(16 + i) for i in range(8)]

        # Reference: uninterrupted consumption with growth mid-epoch.
        u, reader = fresh_reader()
        pipe = build_pipeline(reader, batch_size=4, prefetch_depth=depth)
        ref = self._batches(pipe, 2)
        state = pipe.state()  # checkpoint here, mid-epoch (step 2 of 4)
        # The universe grows; the suspend/restore beat rewinds any plans a
        # prefetch thread drew ahead, exactly as StreamingSource.poll does.
        pipe.close()
        reader.ingest_admit(growth, version=None)
        pipe = build_pipeline(reader, batch_size=4, prefetch_depth=depth)
        pipe.restore(state)
        ref += self._batches(pipe, 6)  # finish epoch + spill into the next
        pipe.close()

        # Resume: a fresh reader replays admissions, restores the cursor.
        u2, reader2 = fresh_reader()
        reader2.ingest_admit(growth, version=None)
        assert u2.version == 2
        pipe2 = build_pipeline(reader2, batch_size=4, prefetch_depth=depth)
        pipe2.restore(state)
        resumed = self._batches(pipe2, 6)
        pipe2.close()

        for a, b in zip(ref[2:], resumed):
            np.testing.assert_array_equal(a, b)
        # The restored in-flight epoch used the 16-sample snapshot; the
        # epoch after it picks up the grown universe.
        assert state["universe_version"] == 1
        assert len(reader2.sample_ids) == 24

    def test_restore_requires_replay_capable_reader(self):
        u = SampleUniverse()
        u.admit([sample(i) for i in range(8)])
        reader = StreamReader(u, np.random.default_rng(0))
        pipe = build_pipeline(reader, batch_size=4)
        pipe.next_batch()
        state = pipe.state()
        assert state["universe_version"] == 1

        from repro.datastore.reader import ArrayReader

        plain = ArrayReader(
            {"x": np.zeros((8, 4), dtype=np.float32)},
            np.arange(8),
            np.random.default_rng(0),
        )
        fresh = build_pipeline(plain, batch_size=4)
        with pytest.raises(ValueError, match="cannot replay"):
            fresh.restore(state)


class TestStreamingExperiment:
    def test_streaming_study_passes_checks(self):
        from repro.experiments import streaming

        report = streaming.run(
            seed=11, k=2, rounds=2, steps_per_round=2, n_design=256
        )
        assert report.all_checks_pass
        assert len(report.rows) == 2  # one ingest row per round
        with pytest.raises(ValueError):
            streaming.run(rounds=1)

    def test_batch_plans_per_round_do_not_grow_with_the_universe(
        self, monkeypatch
    ):
        """Every poll suspends every pipeline, and every resume re-draws
        the in-flight epoch — but only the steps a round trains on become
        BatchPlans, so a round's count is steps x trainers however large
        the universe has grown (a count, not a timing)."""
        from repro.core import LtfbConfig, LtfbDriver
        from repro.datastore import reader as reader_module
        from repro.experiments.streaming import StreamingSpec, build_streaming_run
        from repro.telemetry import Callback

        built, batch_plan = [], reader_module.BatchPlan

        def counted_batch_plan(**fields):
            built.append(fields["step_index"])
            return batch_plan(**fields)

        monkeypatch.setattr(reader_module, "BatchPlan", counted_batch_plan)
        k, steps, rounds = 2, 2, 40
        spec = StreamingSpec(
            seed=3, k=k, n_design=64 + 16 * (rounds + 4), prime_samples=64,
            tasks_per_poll=16, channel_capacity=32, max_age_s=960.0,
            calibration=32, ae_epochs=1, batch_size=8,
        )
        setup = build_streaming_run(spec)

        class PerRound(Callback):
            counts, sizes = [], []

            def on_round_end(self, event):
                PerRound.counts.append(len(built))
                PerRound.sizes.append(setup.universe.size)

        built.clear()
        LtfbDriver(
            setup.trainers,
            setup.rngs.generator("pairing"),
            LtfbConfig(steps_per_round=steps, rounds=rounds),
            eval_batch=setup.eval_batch,
            source=setup.source,
        ).run(callbacks=[PerRound()])

        per_round = np.diff([0] + PerRound.counts)
        assert PerRound.sizes[-1] >= 8 * PerRound.sizes[0]  # the universe grew
        assert per_round.tolist() == [k * steps] * rounds
