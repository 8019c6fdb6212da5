"""Tests for the layer DAG and the Model wrapper."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.jag.dataset import JagSchema
from repro.models.autoencoder import MultimodalAutoencoder
from repro.tensorlib import losses
from repro.tensorlib.graph import GraphError, LayerGraph
from repro.tensorlib.layers import (
    Activation,
    Concatenation,
    FullyConnected,
    Identity,
    Input,
    Slice,
)
from repro.tensorlib.model import mlp
from repro.utils.rng import RngFactory

RNGS = lambda s=0: RngFactory(s)  # noqa: E731


def simple_graph():
    g = LayerGraph()
    g.add(Input("x", shape=(4,)))
    g.add(FullyConnected("fc", units=3), parents=["x"])
    g.add(Activation("act", "sigmoid"), parents=["fc"])
    return g


class TestGraphStructure:
    def test_duplicate_name_rejected(self):
        g = LayerGraph()
        g.add(Input("x", shape=(2,)))
        with pytest.raises(GraphError):
            g.add(Input("x", shape=(3,)))

    def test_unknown_parent_rejected(self):
        g = LayerGraph()
        with pytest.raises(GraphError):
            g.add(Identity("i"), parents=["nope"])

    def test_add_after_build_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        with pytest.raises(GraphError):
            g.add(Identity("late"), parents=["act"])

    def test_double_build_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        with pytest.raises(GraphError):
            g.build(RNGS())

    def test_topological_order_respects_edges(self):
        g = simple_graph()
        g.build(RNGS())
        order = g.topological_order()
        assert order.index("x") < order.index("fc") < order.index("act")

    def test_deterministic_build_independent_of_insertion(self):
        def build_one(reverse: bool):
            g = LayerGraph()
            g.add(Input("x", shape=(3,)))
            names = ["fc_b", "fc_a"] if reverse else ["fc_a", "fc_b"]
            for n in names:
                g.add(FullyConnected(n, units=2), parents=["x"])
            g.build(RNGS(1))
            return {w.name: w.value.copy() for L in g.layers.values() for w in L.weights}

        w1, w2 = build_one(False), build_one(True)
        assert all(np.array_equal(w1[k], w2[k]) for k in w1)


class TestGraphExecution:
    def test_forward_shapes_and_default_outputs(self):
        g = simple_graph()
        g.build(RNGS())
        out, _ = g.forward({"x": np.zeros((5, 4))})
        assert set(out) == {"act"}  # only sink layers by default
        assert out["act"].shape == (5, 3)

    def test_missing_feed_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        with pytest.raises(GraphError):
            g.forward({})

    def test_unknown_feed_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        with pytest.raises(GraphError):
            g.forward({"x": np.zeros((2, 4)), "bogus": np.zeros((2, 1))})

    def test_inconsistent_batch_rejected(self):
        g = LayerGraph()
        g.add(Input("a", shape=(2,)))
        g.add(Input("b", shape=(2,)))
        g.add(Concatenation("c"), parents=["a", "b"])
        g.build(RNGS())
        with pytest.raises(GraphError):
            g.forward({"a": np.zeros((2, 2)), "b": np.zeros((3, 2))})

    def test_backward_without_forward_rejected(self):
        # The only tape at hand records another graph's pass.
        g, other = simple_graph(), simple_graph()
        g.build(RNGS())
        other.build(RNGS())
        _, tape = other.forward({"x": np.zeros((5, 4))})
        with pytest.raises(GraphError, match="another graph"):
            g.backward({"act": np.zeros((5, 3))}, tape)

    def test_backward_twice_with_one_tape_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        _, tape = g.forward({"x": np.zeros((5, 4))})
        g.backward({"act": np.zeros((5, 3))}, tape)
        with pytest.raises(GraphError, match="already consumed"):
            g.backward({"act": np.zeros((5, 3))}, tape)

    def test_gradient_for_layer_the_tape_did_not_run_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        _, tape = g.forward({"x": np.zeros((5, 4))})
        with pytest.raises(GraphError, match="did not run"):
            g.backward({"bogus": np.zeros((5, 3))}, tape)

    def test_backward_shape_mismatch_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        _, tape = g.forward({"x": np.zeros((5, 4))})
        with pytest.raises(GraphError):
            g.backward({"act": np.zeros((5, 99))}, tape)

    def test_diamond_fan_out_gradient_accumulates(self):
        # x -> a and x -> b, both joined: d/dx = grad_a + grad_b.
        g = LayerGraph()
        g.add(Input("x", shape=(3,)))
        g.add(Identity("a"), parents=["x"])
        g.add(Identity("b"), parents=["x"])
        g.add(Concatenation("s"), parents=["a", "b"])
        g.build(RNGS())
        x = np.ones((2, 3), dtype=np.float32)
        _, tape = g.forward({"x": x})
        dx = g.backward({"s": np.ones((2, 6), dtype=np.float32)}, tape)["x"]
        np.testing.assert_array_equal(dx, 2 * np.ones((2, 3)))

    def test_multi_output_backward(self):
        g = LayerGraph()
        g.add(Input("x", shape=(4,)))
        g.add(Slice("lo", 0, 2), parents=["x"])
        g.add(Slice("hi", 2, 4), parents=["x"])
        g.build(RNGS())
        _, tape = g.forward({"x": np.zeros((1, 4))}, outputs=["lo", "hi"])
        dx = g.backward(
            {
                "lo": np.full((1, 2), 1.0, dtype=np.float32),
                "hi": np.full((1, 2), 2.0, dtype=np.float32),
            },
            tape,
        )["x"]
        np.testing.assert_array_equal(dx, [[1, 1, 2, 2]])

    def test_flops_sum(self):
        g = simple_graph()
        g.build(RNGS())
        assert g.flops_per_sample() == 2 * 4 * 3 + 4 * 3


class TestModel:
    def test_weight_names_qualified_and_unique(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        names = [w.name for w in m.weights]
        assert all(n.startswith("net/") for n in names)
        assert len(set(names)) == len(names)

    def test_weight_lookup_by_suffix(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        assert m.weight("fc0/kernel") is m.weight("net/fc0/kernel")

    def test_state_roundtrip_bytes(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        state = m.get_state()
        payload = m.serialize_state()
        # Perturb, then restore.
        for w in m.weights:
            w.value += 1.0
        m.load_state_bytes(payload)
        for k, v in m.get_state().items():
            np.testing.assert_array_equal(v, state[k])

    def test_set_state_strict(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        state = m.get_state()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError):
            m.set_state(state)

    def test_set_state_shape_checked(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        state = m.get_state()
        k = next(iter(state))
        state[k] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            m.set_state(state)

    def test_zero_grad(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        x = np.ones((2, 4), dtype=np.float32)
        out, tape = m.forward({"in": x}, outputs=["out"])
        _, g = losses.mean_squared_error(out["out"], np.zeros_like(out["out"]))
        m.backward({"out": g}, tape)
        assert any(np.abs(w.grad).sum() > 0 for w in m.weights)
        m.zero_grad()
        assert all(np.abs(w.grad).sum() == 0 for w in m.weights)

    def test_training_flops_triple(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        assert m.flops_per_sample(training=True) == 3 * m.flops_per_sample()

    def test_identical_seeds_identical_models(self):
        m1 = mlp("net", RNGS(11), 6, [16, 16], 3)
        m2 = mlp("net", RNGS(11), 6, [16, 16], 3)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1.value, w2.value)

    def test_different_model_names_different_weights(self):
        rngs = RNGS(11)
        m1 = mlp("a", rngs, 6, [16], 3)
        m2 = mlp("b", rngs, 6, [16], 3)
        assert not np.array_equal(m1.weights[0].value, m2.weights[0].value)

    def test_mlp_output_activation(self):
        m = mlp("net", RNGS(), 4, [8], 2, output_activation="sigmoid")
        out = m.predict({"in": np.random.default_rng(0).normal(size=(9, 4))}, "out")
        assert np.all((out >= 0) & (out <= 1))

    def test_mlp_invalid_dims(self):
        with pytest.raises(ValueError):
            mlp("net", RNGS(), 0, [8], 2)

    def test_input_gradients_returned(self):
        m = mlp("net", RNGS(), 4, [8], 2)
        x = np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)
        out, tape = m.forward({"in": x}, outputs=["out"])
        grads = m.backward({"out": np.ones_like(out["out"])}, tape)
        assert grads["in"].shape == x.shape

    @pytest.mark.parametrize("training", [False, True])
    def test_through_backward_is_input_gradients_only(self, training):
        """A frozen model's pass: input gradients bit-equal to a normal
        backward, and no ``Weight.grad`` read, written or zeroed."""
        m1 = mlp("net", RNGS(3), 6, [16, 16], 4, activation="leaky_relu")
        m2 = mlp("net", RNGS(3), 6, [16, 16], 4, activation="leaky_relu")
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 6)).astype(np.float32)
        g = rng.normal(size=(12, 4)).astype(np.float32)
        for w in m2.weights:
            w.grad[...] = 7.0  # stale contents: through must leave them be

        _, tape1 = m1.forward({"in": x}, outputs=["out"], training=training)
        _, tape2 = m2.forward({"in": x}, outputs=["out"], training=training)
        normal = m1.backward({"out": g}, tape1)
        through = m2.backward({"out": g}, tape2, through=True)

        np.testing.assert_array_equal(through["in"], normal["in"])
        assert any(np.abs(w.grad).sum() > 0 for w in m1.weights)
        assert all(np.all(w.grad == 7.0) for w in m2.weights)
        # The pass consumed the tape like any backward does.
        with pytest.raises(GraphError):
            m2.backward({"out": g}, tape2, through=True)


def _state_of(model):
    """Everything a pass may touch: weight values, weight gradients and
    every layer's RNG state."""
    return (
        model.get_state(),
        {w.name: w.grad.copy() for w in model.weights},
        {n: l._rng.bit_generator.state for n, l in model.graph.layers.items()},
    )


def _assert_same(a, b):
    for da, db in zip(a, b):
        assert da.keys() == db.keys()
        for k in da:
            if isinstance(da[k], np.ndarray):
                np.testing.assert_array_equal(da[k], db[k])
            else:
                assert da[k] == db[k], k


class TestReentrancy:
    """The backward context belongs to the call (its tape), not the model:
    passes through one model may interleave or run concurrently."""

    @pytest.mark.parametrize("through", [False, True], ids=["normal", "through"])
    def test_interleaved_passes_equal_sequential(self, through):
        """``f1 f2 b1 b2`` == ``f1 b1 f2 b2`` in training mode: the only
        state a pass writes is ``Weight.grad``, accumulated either way."""
        seq = mlp("net", RNGS(5), 6, [16, 16], 4, activation="leaky_relu")
        inter = mlp("net", RNGS(5), 6, [16, 16], 4, activation="leaky_relu")
        rng = np.random.default_rng(9)
        xs = [rng.normal(size=(10, 6)).astype(np.float32) for _ in range(2)]
        gs = [rng.normal(size=(10, 4)).astype(np.float32) for _ in range(2)]

        seq_out, seq_dx = [], []
        for x, g in zip(xs, gs):
            out, tape = seq.forward({"in": x}, outputs=["out"], training=True)
            seq_out.append(out["out"])
            seq_dx.append(seq.backward({"out": g}, tape, through=through)["in"])

        passes = [inter.forward({"in": x}, outputs=["out"], training=True) for x in xs]
        inter_dx = [
            inter.backward({"out": g}, tape, through=through)["in"]
            for (_, tape), g in zip(passes, gs)
        ]

        for (out, _), want in zip(passes, seq_out):
            np.testing.assert_array_equal(out["out"], want)
        for got, want in zip(inter_dx, seq_dx):
            np.testing.assert_array_equal(got, want)
        _assert_same(_state_of(inter), _state_of(seq))
        grads_written = any(np.any(w.grad != 0) for w in inter.weights)
        assert grads_written is not through

    def test_threads_share_one_frozen_decoder(self):
        """4 threads x 20 frozen-decoder passes (``training=False``,
        ``through=True``) on one shared autoencoder == the same passes run
        serially, bit for bit, and the decoder's weights and gradients are
        left as they were."""
        schema = JagSchema(image_size=8, views=2, channels=2)
        ae = MultimodalAutoencoder(RNGS(4), schema, hidden=(128, 64), latent_dim=8)
        outputs = ["scalars_out", "images_out"]
        n_threads, n_iters, batch = 4, 20, 64
        rng = np.random.default_rng(13)
        work = [
            [
                (
                    rng.normal(size=(batch, 8)).astype(np.float32),
                    rng.normal(size=(batch, schema.n_scalars)).astype(np.float32),
                    rng.normal(size=(batch, schema.image_flat_dim)).astype(np.float32),
                )
                for _ in range(n_iters)
            ]
            for _ in range(n_threads)
        ]
        before = _state_of(ae.decoder)

        def run(items):
            results = []
            for z, gs, gi in items:
                dec, tape = ae.decoder.forward({"latent": z}, outputs=outputs)
                dz = ae.decoder.backward(
                    {"scalars_out": gs, "images_out": gi}, tape, through=True
                )["latent"]
                results.append((dec["scalars_out"], dec["images_out"], dz))
            return results

        serial = [run(items) for items in work]
        threaded: list = [None] * n_threads
        start = threading.Barrier(n_threads)

        def worker(i):
            start.wait(timeout=60)
            threaded[i] = run(work[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)

        for got, want in zip(threaded, serial):
            assert got is not None and len(got) == n_iters
            for got_arrays, want_arrays in zip(got, want):
                for a, b in zip(got_arrays, want_arrays):
                    np.testing.assert_array_equal(a, b)
        _assert_same(_state_of(ae.decoder), before)
