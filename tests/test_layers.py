"""Tests for layer classes: build protocol, forward math, gradient checks.

Every layer's backward pass is validated against central-difference
numerical gradients, for both weight gradients and input gradients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensorlib.layers import (
    Activation,
    Concatenation,
    FullyConnected,
    Identity,
    Input,
    Layer,
    LayerBuildError,
    Slice,
)

RNG = lambda s=0: np.random.default_rng(s)  # noqa: E731


def build(layer: Layer, *shapes, seed=0):
    layer.build(list(shapes), RNG(seed))
    return layer


def numeric_input_grad(layer, inputs, grad_out, idx, training=False, eps=1e-3):
    """Central-difference d(sum(out * grad_out))/d(inputs[idx])."""

    def objective():
        return float(np.sum(layer.forward(inputs, training)[0] * grad_out))

    x = inputs[idx]
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = float(x[i])
        x[i] = orig + eps
        plus = objective()
        x[i] = orig - eps
        minus = objective()
        x[i] = orig
        grad[i] = (plus - minus) / (2 * eps)
    return grad


class TestBuildProtocol:
    def test_forward_before_build_fails(self):
        with pytest.raises(LayerBuildError):
            FullyConnected("fc", 4).forward([np.zeros((2, 3))], False)

    def test_double_build_fails(self):
        fc = build(FullyConnected("fc", 4), (3,))
        with pytest.raises(LayerBuildError):
            fc.build([(3,)], RNG())

    def test_backward_without_forward_fails(self):
        fc = build(FullyConnected("fc", 4), (3,))
        with pytest.raises(RuntimeError):
            fc.backward(np.zeros((2, 4)), None)

    def test_wrong_input_count(self):
        fc = build(FullyConnected("fc", 4), (3,))
        with pytest.raises(ValueError):
            fc.forward([np.zeros((2, 3)), np.zeros((2, 3))], False)

    def test_wrong_sample_shape(self):
        fc = build(FullyConnected("fc", 4), (3,))
        with pytest.raises(ValueError):
            fc.forward([np.zeros((2, 5))], False)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Identity("")


class TestInput:
    def test_feed_validates_shape(self):
        inp = build(Input("x", shape=(5,)))
        assert inp.feed(np.zeros((3, 5))).shape == (3, 5)
        with pytest.raises(ValueError):
            inp.feed(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            inp.feed(np.zeros(5))

    def test_feed_casts_to_float32(self):
        inp = build(Input("x", shape=(2,)))
        assert inp.feed(np.zeros((1, 2), dtype=np.float64)).dtype == np.float32

    def test_input_with_parents_rejected(self):
        inp = Input("x", shape=(2,))
        with pytest.raises(LayerBuildError):
            inp.build([(2,)], RNG())


class TestFullyConnected:
    def test_forward_math(self):
        fc = build(FullyConnected("fc", 2), (3,))
        fc.bias.assign(RNG(2).normal(size=2))
        x = RNG(1).normal(size=(4, 3)).astype(np.float32)
        expected = x @ fc.kernel.value + fc.bias.value
        np.testing.assert_allclose(fc.forward([x], False)[0], expected, rtol=1e-6)

    def test_weight_gradients_numeric(self):
        fc = build(FullyConnected("fc", 3), (4,))
        x = RNG(2).normal(size=(5, 4)).astype(np.float64)
        g = RNG(3).normal(size=(5, 3)).astype(np.float64)
        _, cache = fc.forward([x.astype(np.float32)], False)
        fc.backward(g.astype(np.float32), cache)
        np.testing.assert_allclose(fc.kernel.grad, x.T @ g, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(fc.bias.grad, g.sum(axis=0), rtol=1e-4, atol=1e-5)

    def test_input_gradient_numeric(self):
        fc = build(FullyConnected("fc", 3), (4,))
        x = RNG(2).normal(size=(5, 4)).astype(np.float32)
        g = RNG(3).normal(size=(5, 3)).astype(np.float32)
        _, cache = fc.forward([x], False)
        analytic = fc.backward(g, cache)[0]
        numeric = numeric_input_grad(fc, [x], g, 0)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-2, atol=1e-3)

    def test_flattens_high_rank_input(self):
        fc = build(FullyConnected("fc", 4), (2, 3))
        x = RNG(0).normal(size=(5, 2, 3)).astype(np.float32)
        out, cache = fc.forward([x], False)
        assert out.shape == (5, 4)
        dx = fc.backward(np.ones((5, 4), dtype=np.float32), cache)[0]
        assert dx.shape == (5, 2, 3)

    def test_flops(self):
        fc = build(FullyConnected("fc", 8), (16,))
        assert fc.flops_per_sample() == 2 * 16 * 8

    def test_grad_accumulates(self):
        fc = build(FullyConnected("fc", 2), (2,))
        x = np.ones((1, 2), dtype=np.float32)
        g = np.ones((1, 2), dtype=np.float32)
        fc.backward(g, fc.forward([x], False)[1])
        first = fc.kernel.grad.copy()
        fc.backward(g, fc.forward([x], False)[1])
        np.testing.assert_allclose(fc.kernel.grad, 2 * first)

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            FullyConnected("fc", 0)


@pytest.mark.parametrize("kind", ["relu", "leaky_relu", "sigmoid"])
class TestActivationLayer:
    def test_input_gradient_numeric(self, kind):
        act = build(Activation("a", kind), (6,))
        x = RNG(4).normal(size=(3, 6)).astype(np.float32)
        x = np.where(np.abs(x) < 1e-2, 0.5, x).astype(np.float32)
        g = RNG(5).normal(size=(3, 6)).astype(np.float32)
        _, cache = act.forward([x], False)
        analytic = act.backward(g, cache)[0]
        numeric = numeric_input_grad(act, [x], g, 0)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-2, atol=1e-3)


class TestActivationErrors:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("a", "swishh")


class TestPlumbingLayers:
    def test_concat_forward_backward(self):
        c = build(Concatenation("c"), (2,), (3,))
        a = np.ones((4, 2), dtype=np.float32)
        b = 2 * np.ones((4, 3), dtype=np.float32)
        out, cache = c.forward([a, b], False)
        assert out.shape == (4, 5)
        ga, gb = c.backward(np.arange(20, dtype=np.float32).reshape(4, 5), cache)
        assert ga.shape == (4, 2) and gb.shape == (4, 3)
        np.testing.assert_array_equal(ga[0], [0, 1])
        np.testing.assert_array_equal(gb[0], [2, 3, 4])

    def test_slice_forward_backward(self):
        s = build(Slice("s", 1, 3), (5,))
        x = np.arange(10, dtype=np.float32).reshape(2, 5)
        out, cache = s.forward([x], False)
        np.testing.assert_array_equal(out, [[1, 2], [6, 7]])
        dx = s.backward(np.ones((2, 2), dtype=np.float32), cache)[0]
        np.testing.assert_array_equal(dx, [[0, 1, 1, 0, 0]] * 2)

    def test_slice_out_of_bounds(self):
        with pytest.raises(LayerBuildError):
            build(Slice("s", 0, 10), (5,))

    def test_slice_invalid_range(self):
        with pytest.raises(ValueError):
            Slice("s", 3, 3)

    def test_identity_passthrough(self):
        ident = build(Identity("i"), (7,))
        x = RNG(0).normal(size=(2, 7)).astype(np.float32)
        out, cache = ident.forward([x], False)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(ident.backward(x, cache)[0], x)
