"""Tests for the layer DAG and the Model wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensorlib import losses
from repro.tensorlib.graph import GraphError, LayerGraph
from repro.tensorlib.layers import (
    Activation,
    Concatenation,
    FullyConnected,
    Identity,
    Input,
    Slice,
    Sum,
)
from repro.tensorlib.model import mlp
from repro.utils.rng import RngFactory

RNGS = lambda s=0: RngFactory(s)  # noqa: E731


def simple_graph():
    g = LayerGraph()
    g.add(Input("x", shape=(4,)))
    g.add(FullyConnected("fc", units=3), parents=["x"])
    g.add(Activation("act", "tanh"), parents=["fc"])
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
        out = g.forward({"x": np.zeros((5, 4))})
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
        g = simple_graph()
        g.build(RNGS())
        with pytest.raises(GraphError):
            g.backward({"act": np.zeros((5, 3))})

    def test_backward_shape_mismatch_rejected(self):
        g = simple_graph()
        g.build(RNGS())
        g.forward({"x": np.zeros((5, 4))})
        with pytest.raises(GraphError):
            g.backward({"act": np.zeros((5, 99))})

    def test_diamond_fan_out_gradient_accumulates(self):
        # x -> a and x -> b, both summed: d/dx = grad_a + grad_b.
        g = LayerGraph()
        g.add(Input("x", shape=(3,)))
        g.add(Identity("a"), parents=["x"])
        g.add(Identity("b"), parents=["x"])
        g.add(Sum("s"), parents=["a", "b"])
        g.build(RNGS())
        x = np.ones((2, 3), dtype=np.float32)
        g.forward({"x": x})
        dx = g.backward({"s": np.ones((2, 3), dtype=np.float32)})["x"]
        np.testing.assert_array_equal(dx, 2 * np.ones((2, 3)))

    def test_multi_output_backward(self):
        g = LayerGraph()
        g.add(Input("x", shape=(4,)))
        g.add(Slice("lo", 0, 2), parents=["x"])
        g.add(Slice("hi", 2, 4), parents=["x"])
        g.build(RNGS())
        g.forward({"x": np.zeros((1, 4))}, outputs=["lo", "hi"])
        dx = g.backward(
            {
                "lo": np.full((1, 2), 1.0, dtype=np.float32),
                "hi": np.full((1, 2), 2.0, dtype=np.float32),
            }
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
        out = m.forward({"in": x}, outputs=["out"])["out"]
        _, g = losses.mean_squared_error(out, np.zeros_like(out))
        m.backward({"out": g})
        assert any(np.abs(w.grad).sum() > 0 for w in m.trainable_weights)
        m.zero_grad()
        assert all(np.abs(w.grad).sum() == 0 for w in m.weights)

    def test_training_flops_triple(self):
        m = mlp("net", RNGS(), 4, [8], 2, activation="identity")
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
        out = m.forward({"in": x}, outputs=["out"])["out"]
        grads = m.backward({"out": np.ones_like(out)})
        assert grads["in"].shape == x.shape

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"batchnorm": True}, {"dropout": 0.3}, {"batchnorm": True, "dropout": 0.3}],
        ids=["plain", "batchnorm", "dropout", "batchnorm+dropout"],
    )
    def test_through_backward_is_input_gradients_only(self, kwargs, training):
        """A frozen model's pass: input gradients bit-equal to a normal
        backward, and no ``Weight.grad`` read, written or zeroed."""
        m1 = mlp("net", RNGS(3), 6, [16, 16], 4, activation="leaky_relu", **kwargs)
        m2 = mlp("net", RNGS(3), 6, [16, 16], 4, activation="leaky_relu", **kwargs)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 6)).astype(np.float32)
        g = rng.normal(size=(12, 4)).astype(np.float32)
        for w in m2.weights:
            w.grad[...] = 7.0  # stale contents: through must leave them be

        m1.forward({"in": x}, outputs=["out"], training=training)
        m2.forward({"in": x}, outputs=["out"], training=training)
        normal = m1.backward({"out": g})
        through = m2.backward({"out": g}, through=True)

        np.testing.assert_array_equal(through["in"], normal["in"])
        assert any(np.abs(w.grad).sum() > 0 for w in m1.trainable_weights)
        assert all(np.all(w.grad == 7.0) for w in m2.weights)
        # The pass consumed the forward cache like any backward does.
        with pytest.raises(GraphError):
            m2.backward({"out": g}, through=True)
