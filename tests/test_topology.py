"""Tests for the pluggable population topologies (:mod:`repro.core.topology`).

Covers the strategy contract (plan determinism, bye handling, pairing
telemetry), each shipped topology's structure (random pairing, grid
neighborhoods, MD-GAN consensus + rotation, async readiness queue),
checkpoint round-trips of topology state (RNG stream, grid shape,
readiness cursor) through the population manifest, the serve-plane
topology label, and the per-neighborhood health-collapse detector.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    AsyncPairwise,
    CellularGrid,
    Isolated,
    LtfbConfig,
    LtfbDriver,
    MultiDiscriminator,
    Pairing,
    RandomPairwise,
    RoundPlan,
    Topology,
    TOPOLOGY_NAMES,
    build_population,
    resolve_topology,
)
from repro.core.checkpoint import CheckpointMismatchError, CheckpointStore
from repro.core.topology import _infer_grid
from repro.telemetry import Callback
from repro.utils.rng import RngFactory


def _names(k: int) -> list[str]:
    return [f"trainer{i:02d}" for i in range(k)]


def _bound(topology: Topology, k: int, seed: int = 5) -> Topology:
    topology.bind(_names(k), np.random.default_rng(seed))
    return topology


def _population(tiny_dataset, tiny_spec, tiny_autoencoder, k, seed=77):
    spec = dataclasses.replace(tiny_spec, k=k)
    return build_population(
        tiny_dataset,
        np.arange(tiny_dataset.n_samples - 64),
        RngFactory(seed).child("topo"),
        spec,
        tiny_autoencoder,
    )


def _run(
    trainers, tiny_dataset, topology, rounds=2, steps_per_round=2,
    rng_seed=7, callbacks=(), backend=None, history=None,
):
    val_ids = np.arange(tiny_dataset.n_samples - 64, tiny_dataset.n_samples)
    driver = LtfbDriver(
        trainers,
        np.random.default_rng(rng_seed),
        LtfbConfig(steps_per_round=steps_per_round, rounds=rounds),
        eval_batch={k: v[val_ids] for k, v in tiny_dataset.fields.items()},
        backend=backend,
        topology=topology,
        history=history,
    )
    history = driver.run(callbacks=list(callbacks))
    return driver, history


class _PairingEvents(Callback):
    def __init__(self):
        self.events = []

    def on_pairing(self, event):
        self.events.append(dict(event.payload))


class TestResolve:
    def test_names(self):
        assert isinstance(resolve_topology("random_pairwise"), RandomPairwise)
        assert isinstance(resolve_topology("cellular_grid"), CellularGrid)
        assert isinstance(
            resolve_topology("multi_discriminator"), MultiDiscriminator
        )
        assert isinstance(resolve_topology("async_pairwise"), AsyncPairwise)
        assert isinstance(resolve_topology("isolated"), Isolated)
        assert set(TOPOLOGY_NAMES) == {
            "random_pairwise", "cellular_grid", "multi_discriminator",
            "async_pairwise", "isolated",
        }

    def test_none_is_isolated(self):
        assert isinstance(resolve_topology(None), Isolated)

    def test_instance_passthrough(self):
        topology = CellularGrid(shape=(2, 2))
        assert resolve_topology(topology) is topology

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology("torus")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_topology(7)


class TestLifecycle:
    def test_double_bind_raises(self):
        topology = _bound(RandomPairwise(), 4)
        with pytest.raises(RuntimeError, match="already bound"):
            topology.bind(_names(4), np.random.default_rng(0))

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="empty population"):
            RandomPairwise().bind([], np.random.default_rng(0))

    def test_missing_rng_is_a_typed_error(self):
        topology = RandomPairwise()
        topology.bind(_names(4), None)
        with pytest.raises(ValueError, match="pairing RNG"):
            topology.plan_round(0)

    def test_async_requires_rng_at_bind(self):
        with pytest.raises(ValueError, match="pairing RNG"):
            AsyncPairwise().bind(_names(4), None)

    def test_restore_before_bind_raises(self):
        with pytest.raises(RuntimeError, match="bind"):
            RandomPairwise().restore({"kind": "random_pairwise"})


class TestRandomPairwise:
    def test_plan_matches_single_permutation_draw(self):
        topology = _bound(RandomPairwise(), 6, seed=11)
        perm = np.random.default_rng(11).permutation(6)
        plan = topology.plan_round(0)
        assert [(p.a, p.b) for p in plan.pairs] == [
            (perm[0], perm[1]), (perm[2], perm[3]), (perm[4], perm[5]),
        ]
        assert plan.byes == ()

    def test_odd_population_bye_is_deterministic(self):
        plans = [
            _bound(RandomPairwise(), 5, seed=3).plan_round(0)
            for _ in range(2)
        ]
        assert plans[0] == plans[1]
        assert len(plans[0].pairs) == 2
        assert len(plans[0].byes) == 1
        paired = {i for p in plans[0].pairs for i in (p.a, p.b)}
        assert set(plans[0].byes) | paired == set(range(5))

    def test_state_roundtrip_realigns_the_stream(self):
        a = _bound(RandomPairwise(), 4, seed=1)
        a.plan_round(0)
        state = a.state()
        assert state["kind"] == "random_pairwise"
        b = _bound(RandomPairwise(), 4, seed=999)  # deliberately misaligned
        b.restore(state)
        assert b.plan_round(1) == a.plan_round(1)

    def test_restore_wrong_kind(self):
        topology = _bound(RandomPairwise(), 4)
        with pytest.raises(CheckpointMismatchError, match="cellular_grid"):
            topology.restore({"kind": "cellular_grid"})


class TestCellularGrid:
    def test_infer_grid_prefers_square(self):
        assert _infer_grid(4) == (2, 2)
        assert _infer_grid(6) == (2, 3)
        assert _infer_grid(12) == (3, 4)
        assert _infer_grid(5) == (1, 5)  # prime: 1D ring
        assert _infer_grid(2) == (1, 2)

    def test_shape_must_tile_population(self):
        with pytest.raises(ValueError, match="does not tile"):
            _bound(CellularGrid(shape=(2, 3)), 4)

    def test_bad_shape_and_neighborhood_rejected(self):
        with pytest.raises(ValueError, match="neighborhood"):
            CellularGrid(neighborhood="hexagonal")
        with pytest.raises(ValueError, match="shape"):
            CellularGrid(shape=(0, 2))
        with pytest.raises(ValueError, match="shape"):
            CellularGrid(shape=(2, 2, 2))

    def test_neighborhood_labels_are_grid_cells(self):
        topology = _bound(CellularGrid(shape=(2, 2)), 4)
        assert [topology.neighborhood_of(i) for i in range(4)] == [
            "cell(0,0)", "cell(0,1)", "cell(1,0)", "cell(1,1)",
        ]

    def test_plan_is_deterministic_and_local(self):
        topology = _bound(CellularGrid(shape=(2, 2)), 4)
        plan0 = topology.plan_round(0)  # rightward: row neighbors
        assert {(p.a, p.b) for p in plan0.pairs} == {(0, 1), (2, 3)}
        plan1 = topology.plan_round(1)  # downward: column neighbors
        assert {(p.a, p.b) for p in plan1.pairs} == {(0, 2), (1, 3)}
        assert plan0.byes == plan1.byes == ()
        assert all(p.neighborhood for p in plan0.pairs)
        # No RNG involved: identical calls, identical plans.
        assert topology.plan_round(0) == plan0

    def test_ring_wraparound_rotates_byes(self):
        topology = _bound(CellularGrid(), 3)  # 1D ring of 3
        seen_byes = {topology.plan_round(r).byes for r in range(4)}
        assert all(len(b) == 1 for b in seen_byes)
        assert len(seen_byes) > 1  # the brick phase rotates the odd one out

    def test_moore_adds_diagonals(self):
        von = _bound(CellularGrid(shape=(2, 2)), 4)
        moore = _bound(CellularGrid(shape=(2, 2), neighborhood="moore"), 4)
        assert len(moore._directions()) == 4 > len(von._directions())
        diag = moore.plan_round(2)  # third direction: (1, 1)
        assert {(p.a, p.b) for p in diag.pairs} == {(0, 3), (1, 2)}

    def test_state_roundtrip_and_mismatches(self):
        topology = _bound(CellularGrid(shape=(2, 2)), 4)
        state = topology.state()
        assert state == {
            "kind": "cellular_grid",
            "shape": [2, 2],
            "neighborhood": "von_neumann",
        }
        fresh = _bound(CellularGrid(shape=(2, 2)), 4)
        fresh.restore(state)  # no error
        ring = _bound(CellularGrid(shape=(4,)), 4)
        with pytest.raises(CheckpointMismatchError, match="grid shape"):
            ring.restore(state)
        moore = _bound(CellularGrid(shape=(2, 2), neighborhood="moore"), 4)
        with pytest.raises(CheckpointMismatchError, match="neighborhood"):
            moore.restore(state)


class TestAsyncPairwiseUnit:
    def test_pairs_in_readiness_order(self):
        topology = _bound(AsyncPairwise(), 4, seed=2)
        topology.begin_round(0)
        assert topology.on_ready(2) is None  # first finisher waits
        pairing = topology.on_ready(0)
        assert pairing == Pairing(2, 0)
        assert topology.on_ready(3) is None
        assert topology.on_ready(1) == Pairing(3, 1)
        assert topology.finish_round() == ()

    def test_leftover_waiter_is_the_bye(self):
        topology = _bound(AsyncPairwise(), 3, seed=2)
        topology.begin_round(0)
        topology.on_ready(1)
        topology.on_ready(0)
        topology.on_ready(2)
        assert topology.finish_round() == (2,)

    def test_state_carries_cursor_and_rng(self):
        topology = _bound(AsyncPairwise(), 3, seed=2)
        topology.begin_round(0)
        for i in range(3):
            topology.on_ready(i)
        topology.finish_round()
        state = topology.state()
        assert state["ready_cursor"] == 3
        fresh = _bound(AsyncPairwise(), 3, seed=404)
        fresh.restore(state)
        assert fresh._ready_cursor == 3
        assert (
            fresh._require_rng().bit_generator.state
            == topology._require_rng().bit_generator.state
        )

    def test_sync_hooks_raise_on_sync_topologies(self):
        topology = _bound(RandomPairwise(), 4)
        with pytest.raises(NotImplementedError, match="not barrier-free"):
            topology.begin_round(0)
        with pytest.raises(NotImplementedError, match="synchronous"):
            _bound(AsyncPairwise(), 4).plan_round(0)


@pytest.mark.parametrize(
    "topology_name",
    ["random_pairwise", "cellular_grid", "multi_discriminator",
     "async_pairwise"],
)
class TestByesAndPairingEvents:
    """Satellite: the odd-population bye must be deterministic and
    telemetry-visible under every topology."""

    def test_odd_population_run(
        self, topology_name, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=3)
        events = _PairingEvents()
        driver, history = _run(
            trainers, tiny_dataset, topology_name, callbacks=[events]
        )
        assert history.rounds_completed == 2
        assert len(history.pairings) == len(history.byes) == 2
        assert len(events.events) == 2
        names = {t.name for t in trainers}
        for payload, pairs, byes in zip(
            events.events, history.pairings, history.byes
        ):
            assert payload["topology"] == topology_name
            assert payload["pairs"] == [list(p) for p in pairs]
            assert payload["bye"] == byes
            assert "neighborhoods" in payload
            # Pairs and byes partition the population (MD consensus pairs
            # overlap on the best trainer instead, and has no byes).
            flat = {n for p in pairs for n in p} | set(byes)
            assert flat <= names
            if topology_name != "multi_discriminator":
                assert len(byes) == 1  # odd population: exactly one bye
                assert sorted(flat) == sorted(names)

    def test_byes_reproduce_across_runs(
        self, topology_name, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        runs = []
        for _ in range(2):
            trainers = _population(
                tiny_dataset, tiny_spec, tiny_autoencoder, k=3
            )
            _, history = _run(trainers, tiny_dataset, topology_name)
            runs.append((history.pairings, history.byes))
        assert runs[0] == runs[1]


class TestMultiDiscriminator:
    def test_consensus_adoption_and_rotation(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=3)
        disc_before = [
            {
                k: v.copy()
                for k, v in t.surrogate.get_full_state().items()
                if k.startswith("discriminator/")
            }
            for t in trainers
        ]
        driver, history = _run(
            trainers, tiny_dataset, "multi_discriminator", rounds=1
        )
        # Consensus: every tournament names the same partner (the best).
        partners = {r.partner for r in history.tournaments}
        assert len(partners) == 1
        assert len(history.tournaments) == 2  # k-1 verdicts
        for record in history.tournaments:
            assert record.adopted_partner == (
                record.partner_score < record.own_score
            )
        # Rotation: after 1 round trainer i holds the *trained* successor
        # discriminator; all three discriminators moved.
        for i, t in enumerate(trainers):
            now = {
                k: v
                for k, v in t.surrogate.get_full_state().items()
                if k.startswith("discriminator/")
            }
            src = (i + 1) % 3
            # Weights came from the ring successor's lineage, not its own
            # pre-round state (the successor trained in between, so exact
            # equality is with the successor's post-train weights — just
            # assert its own pre-round disc is gone).
            assert not all(
                np.array_equal(now[k], disc_before[i][k]) for k in now
            )
            assert src != i

    def test_rotation_counter_roundtrips(self):
        topology = _bound(MultiDiscriminator(), 3)
        topology._rotations = 5
        state = topology.state()
        assert state == {"kind": "multi_discriminator", "rotations": 5}
        fresh = _bound(MultiDiscriminator(), 3)
        fresh.restore(state)
        assert fresh._rotations == 5


class TestAsyncPairwiseRuns:
    def test_serial_async_is_deterministic(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        histories = []
        for _ in range(2):
            trainers = _population(
                tiny_dataset, tiny_spec, tiny_autoencoder, k=3
            )
            _, history = _run(
                trainers, tiny_dataset, "async_pairwise", rounds=3
            )
            histories.append(history)
        a, b = histories
        assert a.tournaments == b.tournaments
        assert a.pairings == b.pairings
        assert a.byes == b.byes
        assert a.train_losses == b.train_losses

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_parallel_backends_complete_healthy(
        self, backend_name, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        from repro.exec import resolve_backend
        from repro.telemetry import LiveAggregator

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=3)
        events = _PairingEvents()
        driver, history = _run(
            trainers,
            tiny_dataset,
            "async_pairwise",
            rounds=2,
            backend=resolve_backend(backend_name, max_workers=2),
            callbacks=[events, LiveAggregator()],
        )
        assert history.rounds_completed == 2
        assert history.healthy, [w.render() for w in history.health_warnings]
        assert all(t.steps_done == 4 for t in driver.trainers)
        # Every round emitted a pairing event with topology attribution
        # and one pair + one bye (k=3).
        assert [e["topology"] for e in events.events] == [
            "async_pairwise", "async_pairwise",
        ]
        for e in events.events:
            assert len(e["pairs"]) == 1 and len(e["bye"]) == 1

        # An even population pairs everyone in every round.  The stall
        # rule weighs the summed fetch stall of 4 trainers training on 2
        # workers against their summed train time, not the wall-clock
        # train phase, so concurrency alone raises no stall alert.
        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=4)
        events = _PairingEvents()
        _, history = _run(
            trainers,
            tiny_dataset,
            "async_pairwise",
            rounds=3,
            backend=resolve_backend(backend_name, max_workers=2),
            callbacks=[events, LiveAggregator()],
        )
        assert history.rounds_completed == 3
        assert not [
            w for w in history.health_warnings if w.kind == "stall_regression"
        ], [w.render() for w in history.health_warnings]
        assert [e["topology"] for e in events.events] == ["async_pairwise"] * 3
        for e in events.events:
            assert len(e["pairs"]) == 2 and e["bye"] == []


class TestCheckpointTopologyState:
    """Satellite: mid-run checkpoint/resume restores each topology's
    state — RNG stream, grid shape, readiness cursor — via the population
    manifest, replacing the old burned-draw realignment."""

    ROUNDS = 4
    INTERRUPT_AT = 2
    STEPS_PER_ROUND = 6  # epoch-aligned for k=2 (see test_checkpoint)

    def _pop(self, tiny_dataset, tiny_spec, tiny_autoencoder):
        spec = dataclasses.replace(tiny_spec, k=2)
        return build_population(
            tiny_dataset,
            np.arange(tiny_dataset.n_samples - 64),
            RngFactory(77),
            spec,
            tiny_autoencoder,
        )

    def _driver(self, trainers, tiny_dataset, topology, rounds,
                rng_seed=424, history=None):
        val_ids = np.arange(
            tiny_dataset.n_samples - 64, tiny_dataset.n_samples
        )
        return LtfbDriver(
            trainers,
            np.random.default_rng(rng_seed),
            LtfbConfig(steps_per_round=self.STEPS_PER_ROUND, rounds=rounds),
            eval_batch={
                k: v[val_ids] for k, v in tiny_dataset.fields.items()
            },
            topology=topology,
            history=history,
        )

    @pytest.mark.parametrize(
        "topology_name",
        ["random_pairwise", "cellular_grid", "async_pairwise"],
    )
    def test_resume_matches_uninterrupted_run(
        self, topology_name, tmp_path, tiny_dataset, tiny_spec,
        tiny_autoencoder,
    ):
        store = CheckpointStore(tmp_path / "ckpts")

        ref_pop = self._pop(tiny_dataset, tiny_spec, tiny_autoencoder)
        full = self._driver(
            ref_pop, tiny_dataset, topology_name, self.ROUNDS
        ).run()

        pop_a = self._pop(tiny_dataset, tiny_spec, tiny_autoencoder)
        driver_a = self._driver(
            pop_a, tiny_dataset, topology_name, self.INTERRUPT_AT
        )
        partial = driver_a.run()
        store.save_population(pop_a, "mid-run", topology=driver_a.topology)

        # "New process": fresh population and driver; the pairing RNG seed
        # deliberately differs — load_population's topology restore must
        # realign the stream, with no burned draws.
        pop_b = self._pop(tiny_dataset, tiny_spec, tiny_autoencoder)
        driver_b = self._driver(
            pop_b, tiny_dataset, topology_name, self.ROUNDS,
            rng_seed=999, history=partial,
        )
        store.load_population("mid-run", pop_b, topology=driver_b.topology)
        resumed = driver_b.run()

        assert resumed.rounds_completed == full.rounds_completed
        assert resumed.pairings == full.pairings
        assert resumed.byes == full.byes
        assert resumed.tournaments == full.tournaments
        assert resumed.train_losses == full.train_losses
        assert resumed.eval_series == full.eval_series
        for ref, res in zip(ref_pop, pop_b):
            for key, arr in ref.generator_state().items():
                np.testing.assert_array_equal(arr, res.generator_state()[key])

    def test_manifest_records_topology(
        self, tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        store = CheckpointStore(tmp_path / "ckpts")
        trainers = self._pop(tiny_dataset, tiny_spec, tiny_autoencoder)
        topology = CellularGrid(shape=(1, 2))
        topology.bind([t.name for t in trainers], np.random.default_rng(0))
        store.save_population(trainers, "tagged", topology=topology)
        snapshot = store.load_ensemble("tagged")
        assert snapshot.topology == "cellular_grid"
        # Mapping form works too, and a kind-less mapping is rejected.
        store.save_population(
            trainers, "mapped", topology={"kind": "isolated"}
        )
        assert store.load_ensemble("mapped").topology == "isolated"
        with pytest.raises(ValueError, match="kind"):
            store.save_population(trainers, "bad", topology={"shape": [1, 2]})

    def test_kind_mismatch_is_typed(
        self, tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        store = CheckpointStore(tmp_path / "ckpts")
        trainers = self._pop(tiny_dataset, tiny_spec, tiny_autoencoder)
        grid = _bound(CellularGrid(shape=(1, 2)), 2)
        grid._names = [t.name for t in trainers]
        store.save_population(trainers, "grid-run", topology=grid)
        wrong = _bound(RandomPairwise(), 2)
        with pytest.raises(CheckpointMismatchError, match="cellular_grid"):
            store.load_population("grid-run", trainers, topology=wrong)

    def test_pre_topology_manifest_loads_without_topology(
        self, tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        store = CheckpointStore(tmp_path / "ckpts")
        trainers = self._pop(tiny_dataset, tiny_spec, tiny_autoencoder)
        store.save_population(trainers, "legacy")  # no topology recorded
        assert store.load_ensemble("legacy").topology is None
        store.load_population("legacy", trainers)  # no error


class TestServeTopologyLabel:
    """Satellite: the serving plane surfaces the training topology."""

    def test_registry_and_metrics_expose_topology(
        self, tmp_path, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        from repro.serve import ModelRegistry, ServeConfig, SurrogateServer

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        driver, _ = _run(
            trainers, tiny_dataset, "cellular_grid", rounds=1
        )
        store = CheckpointStore(tmp_path / "ckpts")
        store.save_autoencoder(tiny_autoencoder)
        store.save_population(
            trainers, "campaign", winner=trainers[0].name,
            topology=driver.topology,
        )
        registry = ModelRegistry(store, max_batch=8)
        model = registry.refresh()
        assert model is not None
        assert model.topology == "cellular_grid"
        server = SurrogateServer(registry, ServeConfig(max_batch=8))
        text = server.metrics.render_prometheus()
        assert "repro_serve_model_info" in text
        assert 'topology="cellular_grid"' in text
        assert server.stats()["model"]["topology"] == "cellular_grid"


class TestNeighborhoodHealth:
    """Satellite: per-neighborhood win-rate collapse detection."""

    def _monitor(self, **kwargs):
        from repro.telemetry import LiveAggregator, TelemetryHub

        hub = TelemetryHub()
        monitor = LiveAggregator(**kwargs).attach(hub)
        hub.subscribe(monitor)
        return hub, monitor

    def test_neighborhood_collapse_flags_early(self):
        # One trainer sweeps its grid cell: 4 adoptions in one
        # neighborhood trip the local detector while the population total
        # (4 < 6) stays under the global floor.
        hub, monitor = self._monitor()
        for r in range(4):
            hub.emit(
                "tournament", round=r, trainer="t0", partner="t1",
                own_score=1.0, partner_score=0.0, adopted=True,
                topology="cellular_grid", neighborhood="cell(0,0)|cell(0,1)",
            )
            hub.emit("round_end", round=r, train_s=1.0)
        assert [w.kind for w in monitor.alerts] == ["winrate_collapse"]
        assert "cell(0,0)|cell(0,1)" in monitor.alerts[0].message
        assert monitor.alerts[0].trainer == "t1"
        assert monitor.alerts[0].neighborhood == "cell(0,0)|cell(0,1)"

    def test_population_collapse_message_unchanged(self):
        # Events without a neighborhood reproduce the historical
        # population-wide message verbatim.
        hub, monitor = self._monitor()
        for r in range(3):
            for _ in range(3):
                hub.emit(
                    "tournament", round=r, trainer="loser", partner="t7",
                    own_score=0.0, partner_score=1.0, adopted=True,
                )
            hub.emit("round_end", round=r, train_s=1.0)
        assert len(monitor.alerts) == 1
        assert "the population is collapsing onto one model" in (
            monitor.alerts[0].message
        )

    def test_local_flag_does_not_suppress_population_flag(self):
        # Two adoptions per round, all won by t1 in the same cell: the
        # neighborhood floor (4) trips first, the population floor (6) a
        # round later — both warnings must surface.
        hub, monitor = self._monitor()
        for r in range(3):
            for loser in ("t0", "t2"):
                hub.emit(
                    "tournament", round=r, trainer=loser, partner="t1",
                    own_score=1.0, partner_score=0.0, adopted=True,
                    topology="cellular_grid",
                    neighborhood="cell(0,0)|cell(0,1)",
                )
            hub.emit("round_end", round=r, train_s=1.0)
        kinds = [w.kind for w in monitor.alerts]
        assert kinds == ["winrate_collapse", "winrate_collapse"]
        assert [w.neighborhood for w in monitor.alerts] == [
            "cell(0,0)|cell(0,1)", None,
        ]
        messages = " | ".join(w.message for w in monitor.alerts)
        assert "neighborhood" in messages
        assert "the population is collapsing onto one model" in messages

    def test_below_neighborhood_floor_is_silent(self):
        hub, monitor = self._monitor(neighborhood_min_adoptions=5)
        for r in range(4):
            hub.emit(
                "tournament", round=r, trainer="t0", partner="t1",
                own_score=1.0, partner_score=0.0, adopted=True,
                topology="cellular_grid", neighborhood="cell(0,0)|cell(0,1)",
            )
            hub.emit("round_end", round=r, train_s=1.0)
        assert monitor.alerts == []


class TestKIndependentUnchanged:
    def test_isolated_topology_keeps_kindependent_shape(
        self, tiny_dataset, tiny_spec, tiny_autoencoder
    ):
        from repro.core import KIndependentDriver

        trainers = _population(tiny_dataset, tiny_spec, tiny_autoencoder, k=2)
        driver = KIndependentDriver(
            trainers, LtfbConfig(steps_per_round=2, rounds=2)
        )
        history = driver.run()
        assert isinstance(driver.topology, Isolated)
        assert history.pairings == []
        assert history.byes == []
        assert history.tournaments == []
        assert history.rounds_completed == 2

    def test_isolated_plan_is_empty(self):
        topology = _bound(Isolated(), 3)
        assert topology.plan_round(0) == RoundPlan()
