"""Tests for the serving subsystem: micro-batcher, cache, registry
hot-reload, and the end-to-end server guarantees (bit-identity with
unbatched forwards, no mixed-version responses across a reload)."""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointStore
from repro.core.ensemble import build_population
from repro.serve import (
    DeadlineExceededError,
    GeneratorRuntime,
    MicroBatcher,
    ModelRegistry,
    PendingRequest,
    ResponseCache,
    ServeConfig,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
    SurrogateServer,
    aggregate,
    closed_loop,
    open_loop,
)
from repro.utils.rng import RngFactory


def _request(row, deadline=None) -> PendingRequest:
    return PendingRequest(
        params=np.asarray(row, dtype=np.float32),
        future=Future(),
        enqueued=time.perf_counter(),
        deadline=deadline,
    )


class TestMicroBatcher:
    def test_coalesces_concurrent_requests(self):
        batches = []
        done = threading.Event()
        n = 24

        def execute(batch):
            batches.append(batch)
            for r in batch.requests:
                r.future.set_result(None)
            if sum(len(b.requests) for b in batches) >= n:
                done.set()

        batcher = MicroBatcher(
            execute, expire=lambda r: None, max_batch=8, max_delay_s=0.02
        )
        requests = [_request([float(i)]) for i in range(n)]
        for r in requests:
            batcher.submit(r)
        batcher.start()
        assert done.wait(5.0)
        batcher.close()
        assert all(len(b.requests) <= 8 for b in batches)
        # Pre-queued traffic must actually batch, not dribble out 1-by-1.
        assert max(len(b.requests) for b in batches) > 1
        assert all(r.future.done() for r in requests)
        assert all(b.t_ready >= b.t_open for b in batches)

    def test_backpressure_rejects_when_full(self):
        batcher = MicroBatcher(
            execute=lambda b: None, expire=lambda r: None, max_queue=2
        )
        batcher.submit(_request([0.0]))
        batcher.submit(_request([1.0]))
        with pytest.raises(ServerOverloadedError):
            batcher.submit(_request([2.0]))

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(execute=lambda b: None, expire=lambda r: None)
        batcher.start()
        batcher.close()
        assert batcher.closed
        with pytest.raises(ServerClosedError):
            batcher.submit(_request([0.0]))

    def test_expired_requests_shed_not_executed(self):
        executed, expired = [], []
        batcher = MicroBatcher(
            execute=lambda b: executed.extend(b.requests),
            expire=expired.append,
            max_delay_s=0.001,
        )
        dead = _request([0.0], deadline=time.perf_counter() - 1.0)
        live = _request([1.0])
        batcher.submit(dead)
        batcher.submit(live)
        batcher.start()
        deadline = time.monotonic() + 5.0
        while len(executed) < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        batcher.close()
        assert expired == [dead]
        assert executed == [live]

    def test_invalid_policy_rejected(self):
        for kwargs in (
            dict(max_batch=0),
            dict(max_queue=0),
            dict(max_delay_s=-1.0),
        ):
            with pytest.raises(ValueError):
                MicroBatcher(
                    execute=lambda b: None, expire=lambda r: None, **kwargs
                )


class TestResponseCache:
    def test_quantized_keys_collapse_near_duplicates(self):
        cache = ResponseCache(quantum=1e-3)
        a = np.array([0.5, 1.0])
        b = a + 1e-5  # within the quantum grid cell
        c = a + 0.1  # a different cell
        assert cache.key(a) == cache.key(b)
        assert cache.key(a) != cache.key(c)
        cache.put(cache.key(a), "hit")
        assert cache.get(cache.key(b)) == "hit"
        assert cache.get(cache.key(c)) is None

    def test_zero_quantum_is_exact(self):
        cache = ResponseCache(quantum=0.0)
        a = np.array([0.5])
        assert cache.key(a) != cache.key(a + 1e-12)

    def test_lru_eviction_order(self):
        cache = ResponseCache(capacity=2, quantum=0.0)
        keys = [cache.key(np.array([float(i)])) for i in range(3)]
        cache.put(keys[0], 0)
        cache.put(keys[1], 1)
        assert cache.get(keys[0]) == 0  # refresh 0; 1 becomes LRU
        cache.put(keys[2], 2)
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == 0
        assert cache.get(keys[2]) == 2
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_disables(self):
        cache = ResponseCache(capacity=0)
        key = cache.key(np.array([1.0]))
        cache.put(key, "x")
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_clear_keeps_stats(self):
        cache = ResponseCache()
        key = cache.key(np.array([1.0]))
        cache.put(key, "x")
        assert cache.get(key) == "x"
        cache.clear()
        assert cache.get(key) is None
        assert cache.stats()["hits"] == 1


class TestAggregate:
    def test_mean_and_median(self):
        outputs = [
            np.array([[1.0, 2.0]]),
            np.array([[3.0, 4.0]]),
            np.array([[11.0, 12.0]]),
        ]
        np.testing.assert_allclose(
            aggregate(outputs, "mean"), np.array([[5.0, 6.0]])
        )
        np.testing.assert_allclose(
            aggregate(outputs, "median"), np.array([[3.0, 4.0]])
        )

    def test_winner_mode_is_not_an_elementwise_reduction(self):
        with pytest.raises(ValueError):
            aggregate([np.zeros(2)], "winner")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            aggregate([np.zeros(2)], "max")


@pytest.fixture(scope="module")
def serve_store(tmp_path_factory, tiny_dataset, tiny_spec, tiny_autoencoder):
    """A checkpoint store holding the autoencoder and two population tags
    (round-001, round-002) with distinct weights."""
    spec = dataclasses.replace(tiny_spec, k=2)
    train_ids = np.arange(tiny_dataset.n_samples - 64)
    trainers = build_population(
        tiny_dataset, train_ids, RngFactory(47), spec, tiny_autoencoder
    )
    store = CheckpointStore(tmp_path_factory.mktemp("serve") / "ckpts")
    store.save_autoencoder(tiny_autoencoder)
    for t in trainers:
        t.train_steps(2)
    store.save_population(trainers, "round-001", winner=trainers[0].name)
    for t in trainers:
        t.train_steps(2)
    store.save_population(trainers, "round-002", winner=trainers[1].name)
    return store


def _server(serve_store, tag="round-001", **config) -> SurrogateServer:
    registry = ModelRegistry(
        serve_store, max_batch=config.get("max_batch", 8)
    )
    registry.load(tag)
    defaults = dict(max_batch=8, max_delay_s=0.002)
    defaults.update(config)
    return SurrogateServer(registry, ServeConfig(**defaults))


class TestRegistry:
    def test_refresh_picks_newest_non_autoencoder_tag(self, serve_store):
        registry = ModelRegistry(serve_store)
        assert not registry.loaded
        with pytest.raises(ServeError):
            registry.current()
        model = registry.refresh()
        assert model is not None
        assert model.tag == "round-002"
        assert model.version == 1
        # A second refresh with no new tags is a no-op.
        assert registry.refresh() is None
        assert registry.current().version == 1

    def test_load_swaps_and_bumps_version(self, serve_store):
        registry = ModelRegistry(serve_store)
        seen = []
        registry.on_reload(lambda model: seen.append(model.tag))
        registry.load("round-001")
        registry.load("round-002")
        assert registry.current().version == 2
        assert seen == ["round-001", "round-002"]

    def test_winner_member_is_served(self, serve_store):
        registry = ModelRegistry(serve_store)
        registry.load("round-002")
        runtime = registry.current().runtime
        assert runtime.winner.snapshot.trainer_name == "trainer01"


def _summary(value: float, metric: str = "js") -> dict:
    """A minimal stamped eval summary the gate can judge by."""
    return {"metric": metric, "winner_value": value}


@pytest.fixture()
def gate_store(tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder):
    """A fresh two-tag store per test, so stamped eval summaries never
    leak between gate scenarios (or into the shared ``serve_store``)."""
    spec = dataclasses.replace(tiny_spec, k=2)
    train_ids = np.arange(tiny_dataset.n_samples - 64)
    trainers = build_population(
        tiny_dataset, train_ids, RngFactory(48), spec, tiny_autoencoder
    )
    store = CheckpointStore(tmp_path / "ckpts")
    store.save_autoencoder(tiny_autoencoder)
    store.save_population(trainers, "round-001", winner=trainers[0].name)
    for t in trainers:
        t.train_steps(1)
    store.save_population(trainers, "round-002", winner=trainers[1].name)
    return store


class TestQualityGate:
    def test_regressed_candidate_refused(self, gate_store):
        gate_store.stamp_eval_summary("round-001", _summary(0.10))
        gate_store.stamp_eval_summary("round-002", _summary(0.50))
        registry = ModelRegistry(gate_store)
        decisions = []
        registry.on_quality_gate(decisions.append)
        registry.load("round-001")
        assert registry.refresh() is None
        # The incumbent keeps serving.
        assert registry.current().tag == "round-001"
        assert len(decisions) == 1
        decision = decisions[0]
        assert not decision.allowed
        assert decision.reason == "regressed"
        assert decision.candidate == pytest.approx(0.50)
        assert decision.incumbent == pytest.approx(0.10)
        assert registry.last_gate is decision
        # The refused tag is remembered: the poll loop does not re-judge
        # (and re-warn about) the same candidate every period.
        assert registry.refresh() is None
        assert len(decisions) == 1

    def test_improved_candidate_swapped(self, gate_store):
        gate_store.stamp_eval_summary("round-001", _summary(0.50))
        gate_store.stamp_eval_summary("round-002", _summary(0.10))
        registry = ModelRegistry(gate_store)
        registry.load("round-001")
        model = registry.refresh()
        assert model is not None and model.tag == "round-002"
        assert registry.last_gate.allowed
        assert registry.last_gate.reason == "improved"

    def test_within_tolerance_passes(self, gate_store):
        gate_store.stamp_eval_summary("round-001", _summary(0.100))
        gate_store.stamp_eval_summary("round-002", _summary(0.104))
        registry = ModelRegistry(gate_store, quality_tolerance=0.05)
        registry.load("round-001")
        model = registry.refresh()
        assert model is not None and model.tag == "round-002"
        assert registry.last_gate.reason == "within_tolerance"

    def test_missing_candidate_summary_passes_open(self, gate_store):
        # round-002 was never probed: the gate has nothing to judge and
        # must not wedge the deployment.  (The explicit None stamp also
        # re-publishes round-002's manifest, keeping it the newest tag
        # after round-001's stamp bumped that manifest's mtime.)
        gate_store.stamp_eval_summary("round-001", _summary(0.10))
        gate_store.stamp_eval_summary("round-002", None)
        registry = ModelRegistry(gate_store)
        registry.load("round-001")
        model = registry.refresh()
        assert model is not None and model.tag == "round-002"
        assert registry.last_gate.allowed
        assert registry.last_gate.reason == "no_candidate_summary"

    def test_missing_incumbent_summary_passes_open(self, gate_store):
        gate_store.stamp_eval_summary("round-002", _summary(0.50))
        registry = ModelRegistry(gate_store)
        registry.load("round-001")
        model = registry.refresh()
        assert model is not None and model.tag == "round-002"
        assert registry.last_gate.reason == "no_incumbent_summary"

    def test_explicit_load_overrides_gate(self, gate_store):
        gate_store.stamp_eval_summary("round-001", _summary(0.10))
        gate_store.stamp_eval_summary("round-002", _summary(0.50))
        registry = ModelRegistry(gate_store)
        registry.load("round-001")
        assert registry.refresh() is None
        # The operator override: load() never consults the gate.
        model = registry.load("round-002")
        assert model.tag == "round-002"
        assert registry.current().tag == "round-002"

    def test_server_surfaces_refusal(self, gate_store):
        gate_store.stamp_eval_summary("round-001", _summary(0.10))
        gate_store.stamp_eval_summary("round-002", _summary(0.50))
        registry = ModelRegistry(gate_store, max_batch=8)
        registry.load("round-001")
        server = SurrogateServer(
            registry, ServeConfig(max_batch=8, max_delay_s=0.002)
        )
        assert registry.refresh() is None
        stats = server.stats()["quality_gate"]
        assert stats["checks"] == 1
        assert stats["refusals"] == 1
        assert stats["last"]["reason"] == "regressed"
        assert stats["last"]["tag"] == "round-002"
        assert server.m_gate_refused.value == 1
        assert server.m_gate_passed.value == 0


class TestServer:
    def test_batched_matches_unbatched_bit_identical(
        self, serve_store, tiny_autoencoder
    ):
        """The acceptance gate: micro-batched outputs must equal the
        single-request forward bit-for-bit (fixed-shape padding)."""
        server = _server(serve_store, cache_size=0)
        snapshot = serve_store.load_ensemble("round-001")
        single = GeneratorRuntime(
            snapshot.winner_member, tiny_autoencoder, max_batch=8
        )
        rng = np.random.default_rng(11)
        params = rng.random((40, single.input_dim), dtype=np.float32)
        with server:
            futures = [server.submit(row) for row in params]
            responses = [f.result(timeout=30.0) for f in futures]
        assert server.stats()["batches"] < len(params), (
            "traffic never coalesced; bit-identity was not exercised "
            "under batching"
        )
        for row, response in zip(params, responses):
            scalars, images = single.predict(row[None, :])
            np.testing.assert_array_equal(response.scalars, scalars[0])
            np.testing.assert_array_equal(response.images, images[0])

    def test_cache_hit_marks_response(self, serve_store):
        server = _server(serve_store)
        row = np.full(
            server.registry.current().runtime.input_dim, 0.25,
            dtype=np.float32,
        )
        with server:
            first = server.predict(row)
            second = server.predict(row)
        assert not first.cached
        assert second.cached
        assert second.version == first.version
        np.testing.assert_array_equal(first.scalars, second.scalars)
        assert server.stats()["cache"]["hits"] == 1

    def test_expired_deadline_raises(self, serve_store):
        server = _server(serve_store)
        row = np.full(
            server.registry.current().runtime.input_dim, 0.75,
            dtype=np.float32,
        )
        with server:
            future = server.submit(row, deadline_s=-1.0)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30.0)
        assert server.stats()["deadline_misses"] == 1

    def test_overload_rejects_and_counts(self, serve_store):
        # The batcher thread is intentionally not started, so the queue
        # fills deterministically.
        server = _server(serve_store, max_queue=2, cache_size=0)
        n = server.registry.current().runtime.input_dim
        rows = np.eye(3, n, dtype=np.float32)
        server.submit(rows[0])
        server.submit(rows[1])
        with pytest.raises(ServerOverloadedError):
            server.submit(rows[2])
        assert server.stats()["rejected"] == 1

    def test_submit_after_stop_rejected(self, serve_store):
        server = _server(serve_store)
        with server:
            pass
        with pytest.raises(ServerClosedError):
            server.submit(np.zeros(
                server.registry.current().runtime.input_dim
            ))

    def test_start_with_empty_store_fails(self, tmp_path):
        registry = ModelRegistry(
            CheckpointStore(tmp_path / "empty"), autoencoder=None
        )
        with pytest.raises(ServeError):
            SurrogateServer(registry).start()

    def test_metrics_are_namespaced(self, serve_store):
        server = _server(serve_store)
        names = {m.name for m in server.metrics}
        assert names, "server registered no metrics"
        assert all(n.startswith("repro_serve_") for n in names)

    def test_hot_reload_mid_load(self, serve_store, tiny_autoencoder):
        """A new winner swaps in under live traffic: every response
        succeeds, none mixes versions, and post-swap traffic is served
        by the new snapshot's weights."""
        server = _server(serve_store, tag="round-001", cache_size=0)
        rng = np.random.default_rng(13)
        n = server.registry.current().runtime.input_dim
        params = rng.random((120, n), dtype=np.float32)
        responses = []
        with server:
            for i, row in enumerate(params):
                responses.append(server.submit(row))
                if i == 40:
                    assert server.registry.refresh().tag == "round-002"
            responses = [f.result(timeout=30.0) for f in responses]

        # No failures, and the version/tag stamps stay consistent.
        by_version = {}
        for r in responses:
            by_version.setdefault(r.version, set()).add(r.tag)
        assert set(by_version) <= {1, 2}
        assert 2 in by_version, "no request was served by the new model"
        assert by_version.get(1, {"round-001"}) == {"round-001"}
        assert by_version[2] == {"round-002"}
        # Version never goes backwards in submission order.
        versions = [r.version for r in responses]
        assert versions == sorted(versions)

        # Post-swap outputs really come from round-002's weights.
        snapshot = serve_store.load_ensemble("round-002")
        runtime = GeneratorRuntime(
            snapshot.winner_member, tiny_autoencoder, max_batch=8
        )
        last_row, last = params[-1], responses[-1]
        scalars, _images = runtime.predict(last_row[None, :])
        np.testing.assert_array_equal(last.scalars, scalars[0])
        assert server.stats()["model"]["tag"] == "round-002"

    def test_reload_clears_cache(self, serve_store):
        server = _server(serve_store, tag="round-001")
        row = np.full(
            server.registry.current().runtime.input_dim, 0.5,
            dtype=np.float32,
        )
        with server:
            server.predict(row)
            assert server.predict(row).cached
            server.registry.refresh()
            refreshed = server.predict(row)
        assert not refreshed.cached
        assert refreshed.tag == "round-002"


    def test_reload_mid_batch_never_serves_stale_cache(
        self, serve_store, monkeypatch
    ):
        """A batch executing on the old model when a reload lands fills
        the cache *after* the reload cleared it; those entries must not
        be served once the new model is current."""
        server = _server(serve_store, tag="round-001")
        old = server.registry.current()
        forward = old.runtime.predict

        def reload_mid_forward(params):
            out = forward(params)
            assert server.registry.refresh().tag == "round-002"
            return out

        monkeypatch.setattr(old.runtime, "predict", reload_mid_forward)
        row = np.full(old.runtime.input_dim, 0.25, dtype=np.float32)
        with server:
            first = server.predict(row)  # pinned to round-001, reloads inside
            serving = server.registry.current().version
            second = server.predict(row)
            third = server.predict(row)
        assert (first.version, first.tag) == (old.version, "round-001")
        assert serving == old.version + 1
        assert (second.version, second.tag, second.cached) == (
            serving, "round-002", False,
        )
        assert (third.version, third.cached) == (serving, True)


class TestLoadGenerators:
    def test_closed_loop_accounts_every_request(self, serve_store):
        server = _server(serve_store)
        n = server.registry.current().runtime.input_dim
        params = np.random.default_rng(7).random((32, n), dtype=np.float32)
        with server:
            report = closed_loop(
                server, params, clients=2, requests_per_client=8
            )
        assert report.n_requests == 16
        assert report.n_ok == 16
        assert report.n_failed == report.n_rejected == 0
        assert len(report.latencies_s) == 16
        p = report.percentiles()
        assert p["p50"] <= p["p95"] <= p["p99"]
        doc = report.to_json()
        assert doc["mode"] == "closed"
        assert doc["achieved_qps"] > 0

    def test_open_loop_accounts_every_request(self, serve_store):
        server = _server(serve_store)
        n = server.registry.current().runtime.input_dim
        params = np.random.default_rng(9).random((32, n), dtype=np.float32)
        with server:
            report = open_loop(server, params, qps=400.0, n_requests=40)
        assert report.n_requests == 40
        assert (
            report.n_ok
            + report.n_deadline_miss
            + report.n_rejected
            + report.n_failed
            == 40
        )
        assert report.n_ok == 40
        assert report.offered_qps == 400.0

    def test_open_loop_charges_generator_lag(self):
        """Coordinated omission: a first ``submit`` that blocks 100 ms
        delays every request due in that window; each one's latency must
        run from its due time, not from when it was finally sent."""

        class StallingServer:
            def __init__(self):
                self.calls = 0

            def submit(self, row, deadline_s=None):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(0.1)
                future = Future()
                future.set_result(None)
                return future

        params = np.zeros((4, 5), dtype=np.float32)
        report = open_loop(StallingServer(), params, qps=1000.0, n_requests=50)
        assert report.n_ok == 50
        assert report.percentiles()["p50"] >= 0.040
